#include "placement/deployment_plan.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "common/fnv.h"
#include "common/table_printer.h"

namespace thrifty {

int GroupDeployment::LargestTenantNodes() const {
  int largest = 0;
  for (const auto& t : tenants) largest = std::max(largest, t.requested_nodes);
  return largest;
}

int64_t GroupDeployment::RequestedNodes() const {
  int64_t total = 0;
  for (const auto& t : tenants) total += t.requested_nodes;
  return total;
}

int64_t DeploymentPlan::TotalNodesUsed() const {
  int64_t total = 0;
  for (const auto& g : groups) total += g.cluster.TotalNodes();
  return total;
}

int64_t DeploymentPlan::TotalNodesRequested() const {
  int64_t total = 0;
  for (const auto& g : groups) total += g.RequestedNodes();
  return total;
}

double DeploymentPlan::ConsolidationEffectiveness() const {
  int64_t requested = TotalNodesRequested();
  if (requested <= 0) return 0;
  return 1.0 - static_cast<double>(TotalNodesUsed()) /
                   static_cast<double>(requested);
}

Result<GroupId> DeploymentPlan::GroupOf(TenantId tenant) const {
  for (const auto& g : groups) {
    for (const auto& t : g.tenants) {
      if (t.id == tenant) return g.group_id;
    }
  }
  return Status::NotFound("tenant " + std::to_string(tenant) +
                          " not in deployment plan");
}

void DeploymentPlan::PrintSummary(std::ostream& os) const {
  size_t num_tenants = 0;
  for (const auto& g : groups) num_tenants += g.tenants.size();
  os << "Deployment plan: " << num_tenants << " tenants in " << groups.size()
     << " tenant-groups, R=" << replication_factor
     << ", P=" << FormatPercent(sla_fraction, 2) << "\n"
     << "  nodes requested: " << TotalNodesRequested()
     << ", nodes used: " << TotalNodesUsed() << " ("
     << FormatPercent(static_cast<double>(TotalNodesUsed()) /
                          static_cast<double>(
                              std::max<int64_t>(1, TotalNodesRequested())),
                      1)
     << " of requested)\n"
     << "  consolidation effectiveness: "
     << FormatPercent(ConsolidationEffectiveness(), 1) << "\n";
}

Result<DeploymentPlan> BuildDeploymentPlan(
    const std::vector<TenantSpec>& tenants, const GroupingSolution& grouping,
    int replication_factor, double sla_fraction) {
  std::unordered_map<TenantId, const TenantSpec*> by_id;
  for (const auto& t : tenants) by_id[t.id] = &t;

  DeploymentPlan plan;
  plan.replication_factor = replication_factor;
  plan.sla_fraction = sla_fraction;
  for (const auto& group : grouping.groups) {
    GroupDeployment deployment;
    deployment.group_id = static_cast<GroupId>(plan.groups.size());
    deployment.ttp = group.ttp;
    deployment.max_active = group.max_active;
    for (TenantId tid : group.tenant_ids) {
      auto it = by_id.find(tid);
      if (it == by_id.end()) {
        return Status::InvalidArgument("grouping references unknown tenant " +
                                       std::to_string(tid));
      }
      deployment.tenants.push_back(*it->second);
    }
    THRIFTY_ASSIGN_OR_RETURN(
        deployment.cluster,
        DesignGroupCluster(deployment.LargestTenantNodes(),
                           deployment.RequestedNodes(), replication_factor));
    plan.groups.push_back(std::move(deployment));
  }
  return plan;
}

std::string GroupMembershipStream(const GroupDeployment& group) {
  // Appended piece by piece: `"literal" + std::to_string(...)` draws a
  // GCC -Wrestrict false positive from the inlined string concatenation.
  std::string stream = "g";
  stream += std::to_string(group.group_id);
  stream += '[';
  std::vector<TenantId> ids;
  ids.reserve(group.tenants.size());
  for (const auto& tenant : group.tenants) ids.push_back(tenant.id);
  std::sort(ids.begin(), ids.end());
  for (TenantId id : ids) {
    stream += std::to_string(id);
    stream += ',';
  }
  stream += "]n";
  stream += std::to_string(group.cluster.TotalNodes());
  stream += ';';
  return stream;
}

std::string CanonicalMembershipStream(const DeploymentPlan& plan) {
  std::vector<const GroupDeployment*> groups;
  groups.reserve(plan.groups.size());
  for (const auto& group : plan.groups) groups.push_back(&group);
  std::sort(groups.begin(), groups.end(),
            [](const GroupDeployment* a, const GroupDeployment* b) {
              return a->group_id < b->group_id;
            });
  std::string stream;
  for (const GroupDeployment* group : groups) {
    stream += GroupMembershipStream(*group);
  }
  return stream;
}

uint64_t GroupFingerprint(const GroupDeployment& group) {
  return Fnv1a64(GroupMembershipStream(group));
}

uint64_t PlanFingerprint(const DeploymentPlan& plan) {
  return Fnv1a64(CanonicalMembershipStream(plan));
}

}  // namespace thrifty
