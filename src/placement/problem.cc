#include "placement/problem.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "activity/level_set.h"
#include "common/fnv.h"

namespace thrifty {

int64_t PackingProblem::TotalRequestedNodes() const {
  int64_t total = 0;
  for (const auto& item : items) total += item.nodes;
  return total;
}

Status PackingProblem::Validate() const {
  if (replication_factor < 1) {
    return Status::InvalidArgument("replication factor must be >= 1");
  }
  if (sla_fraction <= 0 || sla_fraction > 1) {
    return Status::InvalidArgument("SLA fraction must be in (0, 1]");
  }
  std::unordered_set<TenantId> seen;
  for (const auto& item : items) {
    if (item.nodes < 1) {
      return Status::InvalidArgument("tenant " + std::to_string(item.tenant_id) +
                                     " requests < 1 node");
    }
    if (item.activity == nullptr) {
      return Status::InvalidArgument("tenant " + std::to_string(item.tenant_id) +
                                     " has no activity vector");
    }
    if (item.activity->num_epochs() != num_epochs) {
      return Status::InvalidArgument("activity vector of tenant " +
                                     std::to_string(item.tenant_id) +
                                     " has mismatched epoch count");
    }
    if (!seen.insert(item.tenant_id).second) {
      return Status::InvalidArgument("duplicate tenant id " +
                                     std::to_string(item.tenant_id));
    }
  }
  return Status::OK();
}

Result<PackingProblem> MakePackingProblem(
    const std::vector<TenantSpec>& tenants,
    const std::vector<ActivityVector>& activities, int replication_factor,
    double sla_fraction) {
  PackingProblem problem;
  problem.replication_factor = replication_factor;
  problem.sla_fraction = sla_fraction;
  std::unordered_map<TenantId, const ActivityVector*> by_tenant;
  for (const auto& a : activities) by_tenant[a.tenant_id()] = &a;
  for (const auto& spec : tenants) {
    auto it = by_tenant.find(spec.id);
    if (it == by_tenant.end()) {
      return Status::InvalidArgument("no activity vector for tenant " +
                                     std::to_string(spec.id));
    }
    PackingItem item;
    item.tenant_id = spec.id;
    item.nodes = spec.requested_nodes;
    item.activity = it->second;
    problem.items.push_back(item);
  }
  if (!problem.items.empty()) {
    problem.num_epochs = problem.items[0].activity->num_epochs();
  }
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  return problem;
}

int64_t GroupingSolution::NodesUsed(int replication_factor) const {
  int64_t total = 0;
  for (const auto& g : groups) {
    total += static_cast<int64_t>(replication_factor) * g.max_nodes;
  }
  return total;
}

double GroupingSolution::ConsolidationEffectiveness(
    int replication_factor, int64_t requested_nodes) const {
  if (requested_nodes <= 0) return 0;
  return 1.0 - static_cast<double>(NodesUsed(replication_factor)) /
                   static_cast<double>(requested_nodes);
}

size_t GroupingSolution::LevelSetBytes() const {
  size_t total = 0;
  for (const auto& g : groups) total += g.level_set_bytes;
  return total;
}

size_t GroupingSolution::LevelSetDenseBytes() const {
  size_t total = 0;
  for (const auto& g : groups) total += g.level_set_dense_bytes;
  return total;
}

double GroupingSolution::AverageGroupSize() const {
  if (groups.empty()) return 0;
  size_t total = 0;
  for (const auto& g : groups) total += g.tenant_ids.size();
  return static_cast<double>(total) / static_cast<double>(groups.size());
}

namespace {

Status CheckAndAnnotate(const PackingProblem& problem,
                        GroupingSolution* solution, bool annotate) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  std::unordered_map<TenantId, const PackingItem*> items;
  for (const auto& item : problem.items) items[item.tenant_id] = &item;

  std::unordered_set<TenantId> packed;
  for (auto& group : solution->groups) {
    if (group.tenant_ids.empty()) {
      return Status::InvalidArgument("solution contains an empty group");
    }
    GroupLevelSet levels(problem.num_epochs);
    int max_nodes = 0;
    for (TenantId tid : group.tenant_ids) {
      auto it = items.find(tid);
      if (it == items.end()) {
        return Status::InvalidArgument("group references unknown tenant " +
                                       std::to_string(tid));
      }
      if (!packed.insert(tid).second) {
        return Status::InvalidArgument("tenant " + std::to_string(tid) +
                                       " packed more than once");
      }
      levels.Add(*it->second->activity);
      max_nodes = std::max(max_nodes, it->second->nodes);
    }
    double ttp = levels.Ttp(problem.replication_factor);
    if (annotate) {
      group.max_nodes = max_nodes;
      group.ttp = ttp;
      group.max_active = levels.MaxActive();
    } else {
      if (group.max_nodes != max_nodes) {
        return Status::InvalidArgument("group max_nodes mismatch");
      }
      if (ttp + 1e-12 < problem.sla_fraction) {
        return Status::InvalidArgument(
            "group violates fuzzy capacity: TTP " + std::to_string(ttp) +
            " < P " + std::to_string(problem.sla_fraction));
      }
    }
  }
  if (packed.size() != problem.items.size()) {
    return Status::InvalidArgument("not all tenants packed: " +
                                   std::to_string(packed.size()) + " of " +
                                   std::to_string(problem.items.size()));
  }
  return Status::OK();
}

}  // namespace

Status VerifySolution(const PackingProblem& problem,
                      const GroupingSolution& solution) {
  GroupingSolution copy = solution;
  return CheckAndAnnotate(problem, &copy, /*annotate=*/false);
}

uint64_t GroupingFingerprint(const GroupingSolution& solution) {
  // Chained per group, so a million-tenant plan never builds one string.
  uint64_t fp = kFnv1a64Offset;
  std::string record;
  for (const auto& group : solution.groups) {
    record = std::to_string(group.max_nodes) + "[";
    for (TenantId id : group.tenant_ids) {
      record += std::to_string(id);
      record += ',';
    }
    record += "];";
    fp = Fnv1a64(record, fp);
  }
  return fp;
}

Status AnnotateSolution(const PackingProblem& problem,
                        GroupingSolution* solution) {
  return CheckAndAnnotate(problem, solution, /*annotate=*/true);
}

}  // namespace thrifty
