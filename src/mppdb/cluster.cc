#include "mppdb/cluster.h"

#include <cassert>
#include <string>

namespace thrifty {

Cluster::Cluster(int total_nodes, SimEngine* engine,
                 ProvisioningModel provisioning)
    : total_nodes_(total_nodes),
      engine_(engine),
      provisioning_(provisioning) {
  assert(total_nodes >= 0);
  assert(engine != nullptr);
}

Result<MppdbInstance*> Cluster::CreateInstanceOnline(int nodes) {
  if (nodes < 1) return Status::InvalidArgument("instance needs >= 1 node");
  if (nodes_in_use_ + nodes > total_nodes_) {
    return Status::CapacityExceeded(
        "pool has " + std::to_string(total_nodes_ - nodes_in_use_) +
        " free nodes, need " + std::to_string(nodes));
  }
  nodes_in_use_ += nodes;
  instances_.push_back(std::make_unique<MppdbInstance>(
      next_instance_id_++, nodes, engine_, InstanceState::kOnline));
  if (default_completion_) {
    instances_.back()->set_completion_callback(default_completion_);
  }
  return instances_.back().get();
}

Result<MppdbInstance*> Cluster::CreateInstanceAsync(
    int nodes, std::vector<TenantDataSpec> tenant_data,
    std::function<void(MppdbInstance*)> on_ready) {
  if (nodes < 1) return Status::InvalidArgument("instance needs >= 1 node");
  if (nodes_in_use_ + nodes > total_nodes_) {
    return Status::CapacityExceeded(
        "pool has " + std::to_string(total_nodes_ - nodes_in_use_) +
        " free nodes, need " + std::to_string(nodes));
  }
  nodes_in_use_ += nodes;
  instances_.push_back(std::make_unique<MppdbInstance>(
      next_instance_id_++, nodes, engine_, InstanceState::kProvisioning));
  MppdbInstance* instance = instances_.back().get();
  if (default_completion_) {
    instance->set_completion_callback(default_completion_);
  }

  double total_gb = 0;
  for (const auto& spec : tenant_data) total_gb += spec.data_gb;

  SimDuration start = provisioning_.NodeStartTime(nodes);
  SimDuration load = provisioning_.BulkLoadTime(total_gb);
  engine_->ScheduleAfter(start, [instance](SimTime) {
    instance->SetState(InstanceState::kLoading);
  });
  engine_->ScheduleAfter(
      start + load, [instance, tenant_data = std::move(tenant_data),
                     on_ready = std::move(on_ready)](SimTime) {
        for (const auto& spec : tenant_data) {
          instance->AddTenant(spec.tenant_id, spec.data_gb);
        }
        instance->SetState(InstanceState::kOnline);
        if (on_ready) on_ready(instance);
      });
  return instance;
}

Status Cluster::DecommissionInstance(InstanceId id) {
  auto result = GetInstance(id);
  THRIFTY_RETURN_NOT_OK(result.status());
  MppdbInstance* instance = *result;
  if (!instance->IsFree()) {
    return Status::FailedPrecondition(
        "instance still has running queries");
  }
  instance->SetState(InstanceState::kStopped);
  nodes_in_use_ -= instance->nodes();
  return Status::OK();
}

Result<MppdbInstance*> Cluster::GetInstance(InstanceId id) {
  if (id < 0 || static_cast<size_t>(id) >= instances_.size()) {
    return Status::NotFound("no instance with id " + std::to_string(id));
  }
  MppdbInstance* instance = instances_[static_cast<size_t>(id)].get();
  if (instance->state() == InstanceState::kStopped) {
    return Status::NotFound("instance " + std::to_string(id) +
                            " is decommissioned");
  }
  return instance;
}

std::vector<MppdbInstance*> Cluster::LiveInstances() {
  std::vector<MppdbInstance*> out;
  for (const auto& instance : instances_) {
    if (instance->state() != InstanceState::kStopped) {
      out.push_back(instance.get());
    }
  }
  return out;
}

Status Cluster::InjectNodeFailure(InstanceId id, bool auto_replace) {
  auto result = GetInstance(id);
  THRIFTY_RETURN_NOT_OK(result.status());
  MppdbInstance* instance = *result;
  THRIFTY_RETURN_NOT_OK(instance->InjectNodeFailure());
  ++failures_injected_;
  if (auto_replace) {
    // Replacement nodes come from the hibernated pool if available;
    // otherwise the failed node is rebooted. Either way one node-start time
    // elapses before capacity is restored.
    engine_->ScheduleAfter(provisioning_.NodeStartTime(1),
                           [instance](SimTime) {
                             if (instance->state() != InstanceState::kStopped &&
                                 instance->failed_nodes() > 0) {
                               (void)instance->RepairNode();
                             }
                           });
  }
  return Status::OK();
}

}  // namespace thrifty
