#include "core/service.h"

#include <cassert>
#include <string>

namespace thrifty {

namespace {

/// A query meets its SLA when normalized performance <= this tolerance:
/// slightly above 1 to absorb millisecond event rounding.
constexpr double kSlaTolerance = 1.01;

}  // namespace

ThriftyService::ThriftyService(SimEngine* engine, Cluster* cluster,
                               const QueryCatalog* catalog,
                               ServiceOptions options)
    : engine_(engine),
      cluster_(cluster),
      catalog_(catalog),
      options_(options),
      monitor_(options.replication_factor, options.scaling.window) {
  assert(engine != nullptr && cluster != nullptr && catalog != nullptr);
  cluster_->set_default_completion_callback(
      [this](const QueryCompletion& c) { OnRealCompletion(c); });
}

Status ThriftyService::Deploy(const DeploymentPlan& plan) {
  if (deployed_) {
    return Status::FailedPrecondition("service already deployed");
  }
  if (plan.replication_factor != options_.replication_factor) {
    return Status::InvalidArgument(
        "plan replication factor does not match service options");
  }
  DeploymentMaster master(cluster_, &router_);
  THRIFTY_ASSIGN_OR_RETURN(std::vector<DeployedGroup> deployed,
                           master.Deploy(plan));
  (void)deployed;

  if (options_.elastic_scaling) {
    scaler_ = std::make_unique<ElasticScaler>(
        engine_, cluster_, monitor_.tracker(), options_.replication_factor,
        options_.sla_fraction, options_.scaling);
    scaler_->set_exclusion_callback(
        [this](GroupId group, const std::vector<TenantId>& tenants,
               SimTime now) {
          Status st = monitor_.ExcludeTenants(group, tenants, now);
          assert(st.ok());
          (void)st;
        });
  }

  for (const GroupDeployment& group : plan.groups) {
    std::vector<TenantId> ids;
    for (const auto& tenant : group.tenants) {
      tenants_[tenant.id] = tenant;
      ids.push_back(tenant.id);
      // The isolated-environment counterfactual: a dedicated instance of
      // exactly the requested size, mirroring this tenant's submissions.
      auto shadow = std::make_unique<MppdbInstance>(
          next_shadow_id_++, tenant.requested_nodes, engine_,
          InstanceState::kOnline);
      shadow->AddTenant(tenant.id, tenant.data_gb);
      shadow->set_completion_callback(
          [this](const QueryCompletion& c) { OnShadowCompletion(c); });
      shadows_[tenant.id] = std::move(shadow);
    }
    THRIFTY_RETURN_NOT_OK(monitor_.RegisterGroup(group.group_id, ids));
    if (scaler_) {
      THRIFTY_ASSIGN_OR_RETURN(GroupRouter * group_router,
                               router_.RouterForGroup(group.group_id));
      THRIFTY_ASSIGN_OR_RETURN(RtTtpMonitor * rt_monitor,
                               monitor_.GroupMonitor(group.group_id));
      scaler_->AddGroup(group.group_id, group.tenants, group_router,
                        rt_monitor);
    }
  }
  if (scaler_) scaler_->Start();
  plan_ = plan;
  deployed_ = true;
  return Status::OK();
}

Result<InstanceId> ThriftyService::SubmitQuery(TenantId tenant,
                                               TemplateId template_id) {
  if (!deployed_) {
    return Status::FailedPrecondition("service not deployed");
  }
  auto spec_it = tenants_.find(tenant);
  if (spec_it == tenants_.end()) {
    return Status::NotFound("tenant " + std::to_string(tenant) +
                            " not deployed");
  }
  const TenantSpec& spec = spec_it->second;
  const QueryTemplate& tmpl = catalog_->Get(template_id);

  THRIFTY_ASSIGN_OR_RETURN(RouteDecision decision, router_.Route(tenant));

  QuerySubmission submission;
  submission.query_id = next_query_id_++;
  submission.tenant_id = tenant;
  submission.template_id = template_id;
  submission.reference_latency =
      tmpl.DedicatedLatency(spec.data_gb, spec.requested_nodes);
  THRIFTY_RETURN_NOT_OK(decision.instance->Submit(submission, tmpl));
  // Mirror onto the shadow instance (same query id, same submit time).
  Status shadow_st = shadows_.at(tenant)->Submit(submission, tmpl);
  assert(shadow_st.ok());
  (void)shadow_st;
  router_.RecordTemplateSubmit(template_id);
  monitor_.OnQueryStart(tenant, engine_->now());
  return decision.instance->id();
}

void ThriftyService::OnRealCompletion(const QueryCompletion& completion) {
  Status st = monitor_.OnQueryFinish(completion.tenant_id,
                                     completion.finish_time);
  assert(st.ok());
  (void)st;
  router_.RecordTemplateComplete(completion.template_id);
  PendingOutcome& pending = pending_[completion.query_id];
  pending.real = completion;
  pending.real_done = true;
  FinalizeOutcome(completion.query_id);
}

void ThriftyService::OnShadowCompletion(const QueryCompletion& completion) {
  PendingOutcome& pending = pending_[completion.query_id];
  pending.isolated_latency = completion.MeasuredLatency();
  pending.shadow_done = true;
  FinalizeOutcome(completion.query_id);
}

void ThriftyService::FinalizeOutcome(QueryId query_id) {
  auto it = pending_.find(query_id);
  if (it == pending_.end() || !it->second.real_done ||
      !it->second.shadow_done) {
    return;
  }
  QueryOutcome outcome;
  outcome.real = it->second.real;
  outcome.isolated_latency = it->second.isolated_latency;
  pending_.erase(it);

  ++metrics_.completed;
  double normalized = outcome.NormalizedPerformance();
  metrics_.normalized_performance.Add(normalized);
  if (normalized <= kSlaTolerance + 1e-9) {
    ++metrics_.sla_met;
  }
  if (completion_hook_) completion_hook_(outcome);
}

Status ThriftyService::ScheduleLogReplay(std::vector<TenantLog> logs) {
  if (!deployed_) {
    return Status::FailedPrecondition("service not deployed");
  }
  size_t base = replay_logs_.size();
  for (auto& log : logs) {
    if (!tenants_.count(log.tenant_id)) {
      return Status::NotFound("tenant " + std::to_string(log.tenant_id) +
                              " not deployed");
    }
    replay_logs_.push_back(std::move(log));
  }
  for (size_t i = base; i < replay_logs_.size(); ++i) {
    ReplayNext(i, 0);
  }
  return Status::OK();
}

void ThriftyService::ReplayNext(size_t log_index, size_t entry_index) {
  const TenantLog& log = replay_logs_[log_index];
  // Skip entries already in the past (e.g. history that predates deploy).
  while (entry_index < log.entries.size() &&
         log.entries[entry_index].submit_time < engine_->now()) {
    ++entry_index;
  }
  if (entry_index >= log.entries.size()) return;
  const QueryLogEntry& entry = log.entries[entry_index];
  engine_->ScheduleAt(
      entry.submit_time, [this, log_index, entry_index](SimTime) {
        const TenantLog& l = replay_logs_[log_index];
        auto result =
            SubmitQuery(l.tenant_id, l.entries[entry_index].template_id);
        if (!result.ok()) ++metrics_.failed_submits;
        ReplayNext(log_index, entry_index + 1);
      });
}

Result<const TenantSpec*> ThriftyService::TenantInfo(TenantId tenant) const {
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) {
    return Status::NotFound("tenant " + std::to_string(tenant) +
                            " not deployed");
  }
  return &it->second;
}

}  // namespace thrifty
