#include "core/reconsolidation.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

namespace thrifty {

ReconsolidationPlanner::ReconsolidationPlanner(ReconsolidationOptions options)
    : options_(std::move(options)) {}

ReconsolidationPlanner::ReconsolidationPlanner(AdvisorOptions options) {
  options_.advisor = std::move(options);
}

Result<ReconsolidationOutput> ReconsolidationPlanner::Plan(
    const ReconsolidationInput& input, const std::vector<TenantLog>& history,
    SimTime history_begin, SimTime history_end) const {
  for (const auto& tenant : input.new_tenants) {
    if (input.deregistered.count(tenant.id)) {
      return Status::InvalidArgument(
          "tenant " + std::to_string(tenant.id) +
          " is both newly registered and de-registered");
    }
  }

  ReconsolidationOutput output;
  output.plan.replication_factor = options_.advisor.replication_factor;
  output.plan.sla_fraction = options_.advisor.sla_fraction;

  std::unordered_map<TenantId, const TenantLog*> logs_by_id;
  for (const auto& log : history) logs_by_id[log.tenant_id] = &log;

  // Fresh group ids start one past the input plan's highest id: untouched
  // groups keep their ids verbatim, and a dissolved group's id (even the
  // highest one) is never handed to a regrouped successor in this cycle.
  GroupId next_id = 0;
  for (const auto& group : input.current_plan.groups) {
    next_id = std::max(next_id, group.group_id + 1);
  }

  // Partition current groups into untouched and affected. A group is
  // affected when it was elastically scaled, lost a de-registered member,
  // or — with drift screening enabled — some member's activity fingerprint
  // over this cycle's window moved beyond the threshold recorded at plan
  // time.
  const double threshold = options_.activity_delta_threshold;
  const auto& groups = input.current_plan.groups;
  std::vector<bool> is_affected(groups.size(), false);
  for (size_t g = 0; g < groups.size(); ++g) {
    const GroupDeployment& group = groups[g];
    bool scaled = input.scaled_groups.count(group.group_id) > 0;
    bool lost_member = std::any_of(
        group.tenants.begin(), group.tenants.end(),
        [&](const TenantSpec& t) { return input.deregistered.count(t.id); });
    bool drifted = false;
    if (!scaled && !lost_member && threshold >= 0 &&
        group.member_activity_baseline.size() == group.tenants.size()) {
      for (size_t m = 0; m < group.tenants.size() && !drifted; ++m) {
        auto it = logs_by_id.find(group.tenants[m].id);
        if (it == logs_by_id.end()) continue;  // no signal, not screened
        double ratio = it->second->ActiveRatio(history_begin, history_end);
        drifted = std::abs(ratio - group.member_activity_baseline[m]) >
                  threshold;
      }
    }
    is_affected[g] = scaled || lost_member || drifted;
    if (drifted) ++output.drifted_groups;
  }

  // Absorbers: an affected tenant can only be re-placed into a group the
  // re-solve sees, so solving the affected tenants strictly alone packs
  // them worse than the full cold solve would (its hard-to-pack tenants
  // land in other groups' spare capacity). For every size class (requested
  // nodes; step 1 partitions by it) holding an affected tenant, open the
  // class's `absorbers_per_class` least-populated unaffected groups (ties:
  // lowest group id) to the re-solve. Those are the greedy tail groups —
  // exactly where a cold solve parks leftovers — and opening them also
  // re-merges any fragments a previous cycle left behind. Groups whose
  // members all carry an always-active baseline are skipped (the advisor
  // would only re-exclude them, churning their group id for nothing).
  if (options_.absorbers_per_class > 0) {
    std::unordered_set<int> affected_classes;
    for (size_t g = 0; g < groups.size(); ++g) {
      if (is_affected[g]) {
        affected_classes.insert(groups[g].LargestTenantNodes());
      }
    }
    for (const auto& tenant : input.new_tenants) {
      affected_classes.insert(tenant.requested_nodes);
    }
    for (int size_class : affected_classes) {
      std::vector<size_t> candidates;
      for (size_t g = 0; g < groups.size(); ++g) {
        if (is_affected[g]) continue;
        if (groups[g].LargestTenantNodes() != size_class) continue;
        bool all_always_active =
            !groups[g].member_activity_baseline.empty() &&
            std::all_of(groups[g].member_activity_baseline.begin(),
                        groups[g].member_activity_baseline.end(),
                        [&](double ratio) {
                          return ratio >
                                 options_.advisor.always_active_threshold;
                        });
        if (!all_always_active) candidates.push_back(g);
      }
      std::sort(candidates.begin(), candidates.end(),
                [&](size_t a, size_t b) {
                  if (groups[a].tenants.size() != groups[b].tenants.size()) {
                    return groups[a].tenants.size() <
                           groups[b].tenants.size();
                  }
                  return groups[a].group_id < groups[b].group_id;
                });
      size_t take = std::min(
          candidates.size(),
          static_cast<size_t>(options_.absorbers_per_class));
      for (size_t a = 0; a < take; ++a) {
        is_affected[candidates[a]] = true;
        ++output.absorber_groups;
      }
    }
  }

  std::vector<TenantSpec> affected = input.new_tenants;
  std::vector<const GroupDeployment*> affected_groups;
  for (size_t g = 0; g < groups.size(); ++g) {
    const GroupDeployment& group = groups[g];
    if (!is_affected[g]) {
      output.untouched_groups.push_back(group.group_id);
      output.plan.groups.push_back(group);  // byte-identical, id kept
      continue;
    }
    output.resolved_groups.push_back(group.group_id);
    affected_groups.push_back(&group);
    for (const auto& tenant : group.tenants) {
      if (!input.deregistered.count(tenant.id)) {
        affected.push_back(tenant);
      }
    }
  }

  output.regrouped_tenants = affected;
  if (affected.empty()) {
    return output;
  }

  // Regroup the affected tenants from their recent history. The warm
  // attempt seeds the solver with the affected groups' previous
  // memberships, so group repair keeps whatever structure still meets the
  // SLA (de-registered members are filtered by the solver and show up in
  // grouping.warm_members_missing). Seed-kept groups can only grow,
  // though — they can never restructure *around* a hard-to-pack tenant —
  // so a cold attempt over the same (small) subset runs as well and the
  // planner keeps whichever plan consumes fewer nodes, ties going to the
  // warm one for membership stability.
  AdvisorOptions advisor_options = options_.advisor;
  DeploymentAdvisor advisor(advisor_options);
  THRIFTY_ASSIGN_OR_RETURN(
      AdvisorOutput advised,
      advisor.Advise(affected, history, history_begin, history_end));
  if (!affected_groups.empty()) {
    GroupingSolution seed;
    seed.groups.reserve(affected_groups.size());
    for (const GroupDeployment* group : affected_groups) {
      TenantGroupResult seed_group;
      seed_group.max_nodes = group->LargestTenantNodes();
      for (const auto& tenant : group->tenants) {
        seed_group.tenant_ids.push_back(tenant.id);
      }
      seed.groups.push_back(std::move(seed_group));
    }
    AdvisorOptions warm_options = advisor_options;
    warm_options.warm_start = &seed;
    DeploymentAdvisor warm_advisor(warm_options);
    THRIFTY_ASSIGN_OR_RETURN(
        AdvisorOutput warm,
        warm_advisor.Advise(affected, history, history_begin, history_end));
    if (warm.plan.TotalNodesUsed() <= advised.plan.TotalNodesUsed()) {
      advised = std::move(warm);
    }
  }
  output.grouping = std::move(advised.grouping);
  for (auto& group : advised.plan.groups) {
    group.group_id = next_id++;
    output.plan.groups.push_back(std::move(group));
  }
  // Always-active tenants the advisor excluded are regrouped as singleton
  // dedicated groups so no tenant is dropped from the plan.
  for (size_t e = 0; e < advised.excluded_tenants.size(); ++e) {
    const TenantSpec& excluded = advised.excluded_tenants[e];
    GroupDeployment dedicated;
    dedicated.group_id = next_id++;
    dedicated.tenants.push_back(excluded);
    dedicated.member_activity_baseline.push_back(
        advised.excluded_active_ratios[e]);
    THRIFTY_ASSIGN_OR_RETURN(
        dedicated.cluster,
        DesignGroupCluster(excluded.requested_nodes, excluded.requested_nodes,
                           options_.advisor.replication_factor));
    output.plan.groups.push_back(std::move(dedicated));
  }
  return output;
}

}  // namespace thrifty
