#include "oracles/reference_two_step.h"

#include <algorithm>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "activity/level_set.h"
#include "placement/two_step.h"

namespace thrifty {
namespace {

/// The argmin update rule: a candidate replaces the best so far when there
/// is none, when the best's outcome is empty (an all-zero tenant joining an
/// all-zero group), or when it is better under the Fig 5.3 order, full
/// ties going to the higher tenant id.
bool Replaces(const std::vector<size_t>& pops, TenantId id,
              const std::vector<size_t>* best_pops, TenantId best_id) {
  if (best_pops == nullptr || best_pops->empty()) return true;
  const int cmp = CompareCandidateLevels(pops, *best_pops);
  return cmp < 0 || (cmp == 0 && id > best_id);
}

GroupLevelSet LevelsOf(const PackingProblem& problem,
                       const std::vector<const PackingItem*>& members) {
  GroupLevelSet levels(problem.num_epochs);
  for (const PackingItem* item : members) levels.Add(*item->activity);
  return levels;
}

bool Violates(const PackingProblem& problem, double ttp) {
  return ttp + 1e-12 < problem.sla_fraction;
}

/// Evicts members of an infeasible group one at a time: each round removes
/// the member whose absence leaves the best group under the Fig 5.3 order
/// (full ties evict the higher tenant id), until the group is feasible or
/// a single member is left. Returns the eviction count.
size_t Repair(const PackingProblem& problem,
              std::vector<const PackingItem*>* kept) {
  const int r = problem.replication_factor;
  size_t evicted = 0;
  while (kept->size() > 1 &&
         Violates(problem, LevelsOf(problem, *kept).Ttp(r))) {
    size_t victim = 0;
    std::vector<size_t> victim_pops;
    for (size_t i = 0; i < kept->size(); ++i) {
      std::vector<const PackingItem*> rest = *kept;
      rest.erase(rest.begin() + static_cast<ptrdiff_t>(i));
      std::vector<size_t> pops = LevelsOf(problem, rest).level_popcounts();
      const int cmp = i == 0 ? -1 : CompareCandidateLevels(pops, victim_pops);
      if (cmp < 0 ||
          (cmp == 0 && (*kept)[i]->tenant_id > (*kept)[victim]->tenant_id)) {
        victim = i;
        victim_pops = std::move(pops);
      }
    }
    kept->erase(kept->begin() + static_cast<ptrdiff_t>(victim));
    ++evicted;
  }
  return evicted;
}

/// Adds the Fig 5.3-best remaining candidate to `group` until the next
/// addition would violate the SLA, evaluating every candidate in full.
TenantGroupResult Grow(const PackingProblem& problem, int nodes,
                       std::vector<const PackingItem*> members,
                       std::vector<const PackingItem*>* remaining,
                       size_t* candidates) {
  const int r = problem.replication_factor;
  GroupLevelSet levels = LevelsOf(problem, members);
  while (!remaining->empty()) {
    size_t best = 0;
    std::vector<size_t> best_pops;
    for (size_t i = 0; i < remaining->size(); ++i) {
      ++*candidates;
      std::vector<size_t> pops =
          levels.EvaluateAdd(*(*remaining)[i]->activity);
      if (Replaces(pops, (*remaining)[i]->tenant_id,
                   i == 0 ? nullptr : &best_pops,
                   (*remaining)[best]->tenant_id)) {
        best = i;
        best_pops = std::move(pops);
      }
    }
    if (Violates(problem, levels.TtpFromPopcounts(best_pops, r))) break;
    levels.Add(*(*remaining)[best]->activity);
    members.push_back((*remaining)[best]);
    remaining->erase(remaining->begin() + static_cast<ptrdiff_t>(best));
  }
  TenantGroupResult group;
  group.max_nodes = nodes;
  for (const PackingItem* item : members) {
    group.tenant_ids.push_back(item->tenant_id);
  }
  group.ttp = levels.Ttp(r);
  group.max_active = levels.MaxActive();
  return group;
}

}  // namespace

Result<GroupingSolution> ReferenceTwoStep(const PackingProblem& problem,
                                         const GroupingSolution* warm_start) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  GroupingSolution solution;

  std::map<int, std::vector<const PackingItem*>, std::greater<int>> classes;
  for (const PackingItem& item : problem.items) {
    classes[item.nodes].push_back(&item);
  }

  // Seed groups, split per size class; unknown ids are counted and
  // dropped, and a tenant seeded twice counts only in its first group.
  std::map<int, std::vector<std::vector<const PackingItem*>>> seeds;
  if (warm_start != nullptr) {
    std::unordered_map<TenantId, const PackingItem*> by_id;
    for (const PackingItem& item : problem.items) {
      by_id[item.tenant_id] = &item;
    }
    std::unordered_set<TenantId> seen;
    for (const TenantGroupResult& seed : warm_start->groups) {
      std::map<int, std::vector<const PackingItem*>> split;
      for (TenantId id : seed.tenant_ids) {
        auto it = by_id.find(id);
        if (it == by_id.end()) {
          ++solution.warm_members_missing;
        } else if (seen.insert(id).second) {
          split[it->second->nodes].push_back(it->second);
        }
      }
      for (auto& [nodes, members] : split) {
        seeds[nodes].push_back(std::move(members));
      }
    }
  }

  for (auto& [nodes, remaining] : classes) {
    std::sort(remaining.begin(), remaining.end(),
              [](const PackingItem* a, const PackingItem* b) {
                const size_t aa = a->activity->ActiveEpochs();
                const size_t bb = b->activity->ActiveEpochs();
                return aa != bb ? aa < bb : a->tenant_id < b->tenant_id;
              });
    // Revalidate (and repair) every seed group of the class first, pulling
    // its kept members out of the pool; then grow each in seed order.
    std::vector<std::vector<const PackingItem*>> kept_groups;
    for (std::vector<const PackingItem*>& kept : seeds[nodes]) {
      const int r = problem.replication_factor;
      if (Violates(problem, LevelsOf(problem, kept).Ttp(r))) {
        solution.warm_members_evicted += Repair(problem, &kept);
        ++solution.warm_groups_repaired;
      } else {
        ++solution.warm_groups_kept;
      }
      for (const PackingItem* item : kept) {
        remaining.erase(std::find(remaining.begin(), remaining.end(), item));
      }
      kept_groups.push_back(kept);
    }
    for (std::vector<const PackingItem*>& kept : kept_groups) {
      solution.groups.push_back(Grow(problem, nodes, std::move(kept),
                                     &remaining,
                                     &solution.argmin_candidates));
    }
    // The cold loop: seed with the least active remaining tenant.
    while (!remaining.empty()) {
      std::vector<const PackingItem*> seed = {remaining.front()};
      remaining.erase(remaining.begin());
      solution.groups.push_back(Grow(problem, nodes, std::move(seed),
                                     &remaining,
                                     &solution.argmin_candidates));
    }
  }
  return solution;
}

}  // namespace thrifty
