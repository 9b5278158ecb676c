#include "placement/two_step.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "activity/level_set.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace thrifty {

int CompareCandidateLevels(const std::vector<size_t>& a,
                           const std::vector<size_t>& b) {
  // Entry m-1 counts epochs with >= m active tenants; epochs with exactly m
  // is the difference of adjacent entries. Compare exact counts from the
  // top level down: fewer epochs at the highest activity level wins.
  size_t levels = std::max(a.size(), b.size());
  for (size_t m = levels; m >= 1; --m) {
    size_t am = m <= a.size() ? a[m - 1] : 0;
    size_t am1 = m < a.size() ? a[m] : 0;
    size_t bm = m <= b.size() ? b[m - 1] : 0;
    size_t bm1 = m < b.size() ? b[m] : 0;
    size_t ea = am - am1;
    size_t eb = bm - bm1;
    if (ea != eb) return ea < eb ? -1 : 1;
  }
  return 0;
}

namespace {

/// The argmin's update rule: whether a candidate with outcome `pops`
/// replaces the current best. An empty `best_pops` (no best yet, or a best
/// whose EvaluateAdd outcome was empty — an all-zero tenant joining an
/// all-zero group) is replaced unconditionally; members sorted by
/// (activity, id) make that equivalent to the Fig 5.3 total order, so the
/// rule commutes with sharding.
bool TakesOver(const std::vector<size_t>& best_pops, TenantId best_id,
               const std::vector<size_t>& pops, TenantId id) {
  if (best_pops.empty()) return true;
  int cmp = CompareCandidateLevels(pops, best_pops);
  return cmp < 0 || (cmp == 0 && id > best_id);
}

/// A candidate's counts at the group's top two levels, with M =
/// MaxActive(): `top` = |c & L_M|, its would-be count at the new level
/// M+1, and `below` = |c & L_{M-1}| (L_0 is all ones; 0 when M == 0, where
/// level M is not compared). The would-be exact count at level M is
/// |L_M| + below - 2 top, so under the Fig 5.3 order a candidate with a
/// larger `top`, or an equal `top` and a larger `below`, loses outright.
struct TopCounts {
  size_t top = 0;
  size_t below = 0;

  bool LosesTo(const TopCounts& other) const {
    return top > other.top || (top == other.top && below > other.below);
  }
};

/// Lower bounds on a candidate's TopCounts, carried across the growth
/// steps of one group (DESIGN.md §3, "Bounds carried across growth
/// steps"). While the group grows with M fixed, L_M and L_{M-1} only gain
/// bits, so counts taken at an earlier step stay lower bounds. When M
/// rises by one, the old L_M is a subset of the new L_{M-1}, so the old
/// `top` bounds the new `below`, and the new `top` is bounded only by 0.
/// The all-zero record is a valid bound at any M.
struct TopBound {
  uint32_t m = 0;
  uint32_t top = 0;
  uint32_t below = 0;

  TopCounts At(int max_active) const {
    const uint32_t now = static_cast<uint32_t>(max_active);
    if (m == now) return {top, below};
    if (m + 1 == now) return {0, top};
    return {};
  }

  /// Saturates at 2^32 - 1, which keeps each field a lower bound.
  void Record(int max_active, const TopCounts& counts) {
    constexpr size_t kMax = std::numeric_limits<uint32_t>::max();
    m = static_cast<uint32_t>(max_active);
    top = static_cast<uint32_t>(std::min(counts.top, kMax));
    below = static_cast<uint32_t>(std::min(counts.below, kMax));
  }
};

/// The remaining-candidate list of one initial group. Removal tombstones
/// the slot and the array is compacted once dead slots outnumber live
/// ones, so a whole solve costs amortized O(1) per removal instead of the
/// former quadratic mid-vector erase — while live slots keep their original
/// sorted order, which the Fig 5.3 tie-breaks depend on. Each slot carries
/// its candidate's TopBound for the group being grown.
class CandidateList {
 public:
  struct Slot {
    const PackingItem* item;  // nullptr once removed
    TopBound bound;
  };

  explicit CandidateList(const std::vector<const PackingItem*>& members)
      : live_(members.size()) {
    slots_.reserve(members.size());
    for (const PackingItem* item : members) slots_.push_back({item, {}});
  }

  bool Empty() const { return live_ == 0; }

  /// Raw slot array; tombstoned entries have a null item. Scan shards
  /// write the bounds of their own slot ranges only.
  std::vector<Slot>& slots() { return slots_; }
  /// First possibly-live raw slot.
  size_t head() const { return head_; }

  /// Forgets every bound: a new group starts with no carried knowledge.
  void ResetBounds() {
    for (size_t s = head_; s < slots_.size(); ++s) slots_[s].bound = {};
  }

  /// Removes and returns the least active remaining tenant.
  const PackingItem* PopFront() {
    const PackingItem* item = slots_[head_].item;
    RemoveSlot(head_);
    return item;
  }

  void RemoveSlot(size_t s) {
    slots_[s].item = nullptr;
    --live_;
    while (head_ < slots_.size() && slots_[head_].item == nullptr) ++head_;
    if (slots_.size() - head_ > 2 * live_) Compact();
  }

 private:
  void Compact() {
    slots_.erase(slots_.begin(), slots_.begin() + static_cast<ptrdiff_t>(head_));
    slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                [](const Slot& slot) {
                                  return slot.item == nullptr;
                                }),
                 slots_.end());
    head_ = 0;
  }

  std::vector<Slot> slots_;
  size_t head_ = 0;
  size_t live_ = 0;
};

struct BestCandidate {
  std::vector<size_t> pops;
  TopCounts counts;  // exact, from `pops`
  const PackingItem* item = nullptr;
  size_t slot = 0;
};

/// Deterministic work tallies of the argmin scans.
struct ArgminWork {
  size_t candidates = 0;   // live candidates scanned
  size_t bound_skips = 0;  // of them, rejected by their TopBound alone

  void operator+=(const ArgminWork& other) {
    candidates += other.candidates;
    bound_skips += other.bound_skips;
  }
};

/// Left-to-right scan of raw slots [lo, hi), skipping tombstones — the
/// serial argmin, reused verbatim as the per-shard scan. `lookup` is the
/// group's word -> column table, shared read-only by every shard. The
/// scratch buffers are reused across every candidate in the shard (no
/// per-candidate heap allocation). A candidate whose carried TopBound
/// already loses to the shard incumbent's exact TopCounts is skipped before
/// any of its words is read; any other is abandoned as soon as its
/// top-down partial exact-level counts fall behind the incumbent, and the
/// top counts the evaluation did compute tighten its bound. All of it is
/// outcome-invisible: the winner and its popcounts equal the plain
/// EvaluateAdd + TakesOver scan's.
void ScanShard(const GroupLevelSet& levels,
               const GroupLevelSet::ColumnLookup& lookup,
               std::vector<CandidateList::Slot>* slots, size_t lo, size_t hi,
               BestCandidate* best, GroupLevelSet::EvalScratch* scratch,
               ArgminWork* work) {
  const int max_active = levels.MaxActive();
  const size_t m = static_cast<size_t>(max_active);
  const size_t top_level_pop = m >= 1 ? levels.level_popcounts()[m - 1] : 0;
  for (size_t s = lo; s < hi; ++s) {
    CandidateList::Slot& slot = (*slots)[s];
    const PackingItem* item = slot.item;
    if (item == nullptr) continue;
    ++work->candidates;
    const TopCounts bound = slot.bound.At(max_active);
    // No incumbent (or an empty-outcome one): replaced unconditionally,
    // so the candidate needs a full evaluation, not a comparison.
    const bool contested = best->item != nullptr && !best->pops.empty();
    if (contested && bound.LosesTo(best->counts)) {
      ++work->bound_skips;
      continue;
    }
    bool take;
    if (!contested) {
      levels.EvaluateAddInto(*item->activity, lookup, scratch);
      take = true;
    } else {
      int cmp = levels.EvaluateAddCompare(*item->activity, best->pops,
                                          lookup, scratch);
      take = cmp < 0 || (cmp == 0 && item->tenant_id > best->item->tenant_id);
    }
    const std::vector<size_t>& pops = scratch->pops;
    TopCounts seen{pops.size() > m ? pops[m] : 0, bound.below};
    if (m >= 1 && scratch->lowest_filled <= m) {
      seen.below = pops[m - 1] + seen.top - top_level_pop;
    }
    slot.bound.Record(max_active, seen);
    if (take) {
      best->pops.swap(scratch->pops);
      best->counts = seen;
      best->item = item;
      best->slot = s;
    }
  }
}

/// Below this many raw slots per shard the fan-out costs more than the
/// scan. Shard count is a function of the (deterministic) slot range only,
/// and the merged winner is shard-independent anyway.
constexpr size_t kMinShardSlots = 192;

BestCandidate FindBestCandidate(const GroupLevelSet& levels,
                                const GroupLevelSet::ColumnLookup& lookup,
                                CandidateList* remaining, ThreadPool* pool,
                                std::vector<GroupLevelSet::EvalScratch>*
                                    scratch,
                                ArgminWork* work) {
  auto& slots = remaining->slots();
  const size_t lo = remaining->head();
  const size_t span = slots.size() - lo;
  size_t shards = pool == nullptr ? 1 : pool->size() + 1;
  if (shards > span / kMinShardSlots) shards = span / kMinShardSlots;
  if (shards <= 1) {
    BestCandidate best;
    ScanShard(levels, lookup, &slots, lo, slots.size(), &best,
              &(*scratch)[0], work);
    return best;
  }
  std::vector<BestCandidate> bests(shards);
  std::vector<ArgminWork> shard_work(shards);
  ParallelFor(pool, shards, [&](size_t k) {
    ScanShard(levels, lookup, &slots, lo + span * k / shards,
              lo + span * (k + 1) / shards, &bests[k], &(*scratch)[k],
              &shard_work[k]);
  });
  for (const ArgminWork& w : shard_work) *work += w;
  // Reduce shard winners in ascending shard order with the same update
  // rule, so the merged winner equals the serial left-to-right scan's.
  BestCandidate best;
  for (BestCandidate& shard_best : bests) {
    if (shard_best.item == nullptr) continue;
    if (best.item == nullptr ||
        TakesOver(best.pops, best.item->tenant_id, shard_best.pops,
                  shard_best.item->tenant_id)) {
      best = std::move(shard_best);
    }
  }
  return best;
}

/// Per-size-class solve output: the closed groups plus warm-start
/// accounting, merged across classes by the caller.
struct InitialGroupResult {
  std::vector<TenantGroupResult> groups;
  size_t warm_kept = 0;
  size_t warm_repaired = 0;
  size_t warm_evicted = 0;
  ArgminWork argmin;
};

/// Group repair: evicts members from an infeasible seed group until its
/// fuzzy capacity holds again, removing as few members as the greedy rule
/// allows. Each round evicts the member whose removal leaves the best
/// remaining group under the Fig 5.3 total order (fewest epochs at the
/// highest activity levels — the member contributing most to the SLA
/// damage), full ties evicting the higher tenant id. The loop always
/// terminates feasible: a single tenant can never exceed R >= 1 concurrent
/// actives. `levels` must hold exactly the members of `kept`; on return it
/// holds the repaired group. Evicted members are erased from `kept` (their
/// slots in the caller's candidate pool stay live, so they re-enter the
/// cold loop). Returns the eviction count.
size_t RepairSeedGroup(const PackingProblem& problem, GroupLevelSet* levels,
                       std::vector<const PackingItem*>* kept) {
  const int r = problem.replication_factor;
  size_t evicted = 0;
  std::vector<size_t> best_pops;
  while (kept->size() > 1 &&
         levels->Ttp(r) + 1e-12 < problem.sla_fraction) {
    size_t victim = kept->size();
    best_pops.clear();
    for (size_t i = 0; i < kept->size(); ++i) {
      const ActivityVector& activity = *(*kept)[i]->activity;
      levels->Remove(activity);
      const std::vector<size_t>& pops = levels->level_popcounts();
      bool better;
      if (victim == kept->size()) {
        better = true;
      } else {
        int cmp = CompareCandidateLevels(pops, best_pops);
        better = cmp < 0 || (cmp == 0 && (*kept)[i]->tenant_id >
                                            (*kept)[victim]->tenant_id);
      }
      if (better) {
        victim = i;
        best_pops = pops;
      }
      levels->Add(activity);
    }
    levels->Remove(*(*kept)[victim]->activity);
    kept->erase(kept->begin() + static_cast<ptrdiff_t>(victim));
    ++evicted;
  }
  return evicted;
}

/// Algorithm 2's growth loop: keeps adding the Fig 5.3-best remaining
/// candidate until the next addition would violate the SLA guarantee, then
/// closes the group (TTP, max-active, storage gauges). Each growth step
/// re-syncs `lookup` to the grown group once, before its scan; the
/// candidates' TopBounds start from zero and carry across the steps.
void GrowAndClose(const PackingProblem& problem, GroupLevelSet* levels,
                  TenantGroupResult* group, CandidateList* remaining,
                  ThreadPool* pool, GroupLevelSet::ColumnLookup* lookup,
                  std::vector<GroupLevelSet::EvalScratch>* scratch,
                  ArgminWork* work) {
  const int r = problem.replication_factor;
  remaining->ResetBounds();
  while (!remaining->Empty()) {
    lookup->Sync(*levels);
    BestCandidate best =
        FindBestCandidate(*levels, *lookup, remaining, pool, scratch, work);
    if (levels->TtpFromPopcounts(best.pops, r) + 1e-12 <
        problem.sla_fraction) {
      break;  // adding T_best would violate P; start a new tenant-group
    }
    remaining->RemoveSlot(best.slot);
    levels->Add(*best.item->activity);
    group->tenant_ids.push_back(best.item->tenant_id);
  }
  group->ttp = levels->Ttp(r);
  group->max_active = levels->MaxActive();
  group->level_set_bytes = levels->MemoryBytes();
  group->level_set_dense_bytes = levels->DenseEquivalentBytes();
}

/// Step 2 over one initial group (all members request `nodes` nodes).
/// `seeds`, when non-null, holds this size class's warm-start groups.
InitialGroupResult SolveInitialGroup(
    const PackingProblem& problem, int nodes,
    std::vector<const PackingItem*> members,
    const std::vector<std::vector<const PackingItem*>>* seeds,
    ThreadPool* pool) {
  const int r = problem.replication_factor;
  // Seeding picks the least active tenant first; sorting the whole list by
  // activity makes that the front element at every iteration.
  std::sort(members.begin(), members.end(),
            [](const PackingItem* a, const PackingItem* b) {
              size_t aa = a->activity->ActiveEpochs();
              size_t bb = b->activity->ActiveEpochs();
              if (aa != bb) return aa < bb;
              return a->tenant_id < b->tenant_id;
            });

  InitialGroupResult result;

  // Warm start: revalidate each seed group against *this* problem's
  // activity and SLA, computing the seed's level set and Ttp exactly once.
  // Feasible groups are pulled out of the candidate pool and kept open;
  // infeasible ones are repaired in place (the already-built level set is
  // reused — only the evictees fall back into the pool).
  std::vector<std::pair<GroupLevelSet, TenantGroupResult>> seeded;
  if (seeds != nullptr && !seeds->empty()) {
    std::unordered_set<const PackingItem*> taken;
    std::vector<const PackingItem*> kept;
    for (const auto& seed_members : *seeds) {
      if (seed_members.empty()) continue;
      GroupLevelSet levels(problem.num_epochs);
      for (const PackingItem* item : seed_members) {
        levels.Add(*item->activity);
      }
      kept = seed_members;
      if (levels.Ttp(r) + 1e-12 < problem.sla_fraction) {
        result.warm_evicted += RepairSeedGroup(problem, &levels, &kept);
        ++result.warm_repaired;
      } else {
        ++result.warm_kept;
      }
      TenantGroupResult group;
      group.max_nodes = nodes;
      for (const PackingItem* item : kept) {
        group.tenant_ids.push_back(item->tenant_id);
        taken.insert(item);
      }
      seeded.emplace_back(std::move(levels), std::move(group));
    }
    if (!taken.empty()) {
      members.erase(std::remove_if(members.begin(), members.end(),
                                   [&](const PackingItem* item) {
                                     return taken.count(item) > 0;
                                   }),
                    members.end());
    }
  }

  CandidateList remaining(members);
  GroupLevelSet::ColumnLookup lookup;
  std::vector<GroupLevelSet::EvalScratch> scratch(
      pool == nullptr ? 1 : pool->size() + 1);

  // Resume the growth loop on every kept seed group first (in seed order),
  // so a tightened instance can absorb evicted singletons...
  for (auto& [levels, group] : seeded) {
    GrowAndClose(problem, &levels, &group, &remaining, pool, &lookup,
                 &scratch, &result.argmin);
    result.groups.push_back(std::move(group));
  }

  // ...then run the cold seed-and-grow loop over what is left.
  while (!remaining.Empty()) {
    GroupLevelSet levels(problem.num_epochs);
    TenantGroupResult group;
    group.max_nodes = nodes;

    // Seed with the least active remaining tenant.
    const PackingItem* seed = remaining.PopFront();
    levels.Add(*seed->activity);
    group.tenant_ids.push_back(seed->tenant_id);

    GrowAndClose(problem, &levels, &group, &remaining, pool, &lookup,
                 &scratch, &result.argmin);
    result.groups.push_back(std::move(group));
  }
  return result;
}

}  // namespace

Result<GroupingSolution> SolveTwoStep(const PackingProblem& problem,
                                      const TwoStepOptions& options) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  auto start = std::chrono::steady_clock::now();

  // Step 1: initial groups by requested node count. Descending size so the
  // output lists big tenants first (cosmetic; groups are independent).
  std::map<int, std::vector<const PackingItem*>, std::greater<int>> initial;
  for (const auto& item : problem.items) {
    initial[item.nodes].push_back(&item);
  }
  std::vector<std::pair<int, std::vector<const PackingItem*>>> sized;
  sized.reserve(initial.size());
  for (auto& [nodes, members] : initial) {
    sized.emplace_back(nodes, std::move(members));
  }

  // Split the optional warm-start grouping per size class (step 1 is a
  // pure partition by requested nodes, so a seed group can only survive
  // within one class; spanning groups are split). Stale seed members whose
  // tenant id is absent from this problem (e.g. de-registered tenants) are
  // filtered out explicitly and counted, and duplicated ids count only
  // once, so a stale seed stays safe. A warm start with no seed groups
  // short-circuits the whole pass — it must not cost more than a cold
  // solve.
  size_t warm_members_missing = 0;
  std::map<int, std::vector<std::vector<const PackingItem*>>> seeds_by_size;
  if (options.warm_start != nullptr && !options.warm_start->groups.empty()) {
    std::unordered_map<TenantId, const PackingItem*> by_id;
    for (const auto& item : problem.items) by_id[item.tenant_id] = &item;
    std::unordered_set<TenantId> seen;
    for (const auto& seed_group : options.warm_start->groups) {
      std::map<int, std::vector<const PackingItem*>> split;
      for (TenantId id : seed_group.tenant_ids) {
        auto it = by_id.find(id);
        if (it == by_id.end()) {
          ++warm_members_missing;
          continue;
        }
        if (!seen.insert(id).second) continue;
        split[it->second->nodes].push_back(it->second);
      }
      for (auto& [nodes, seed_members] : split) {
        seeds_by_size[nodes].push_back(std::move(seed_members));
      }
    }
  }
  std::vector<const std::vector<std::vector<const PackingItem*>>*> seeds(
      sized.size(), nullptr);
  for (size_t g = 0; g < sized.size(); ++g) {
    auto it = seeds_by_size.find(sized[g].first);
    if (it != seeds_by_size.end()) seeds[g] = &it->second;
  }

  // Documented clamp: solver_jobs < 1 is the serial path, same as 1 (a null
  // pool), so callers deriving job counts never need their own validation.
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(options.solver_jobs);

  // Node-size initial groups are independent: solve them as parallel tasks
  // (each of which also shards its candidate argmin over the same pool) and
  // splice the per-size results back in descending-size order.
  std::vector<InitialGroupResult> per_size(sized.size());
  ParallelFor(pool.get(), sized.size(), [&](size_t g) {
    per_size[g] = SolveInitialGroup(problem, sized[g].first,
                                    std::move(sized[g].second), seeds[g],
                                    pool.get());
  });

  GroupingSolution solution;
  solution.warm_members_missing = warm_members_missing;
  for (auto& result : per_size) {
    solution.warm_groups_kept += result.warm_kept;
    solution.warm_groups_repaired += result.warm_repaired;
    solution.warm_members_evicted += result.warm_evicted;
    solution.argmin_candidates += result.argmin.candidates;
    solution.argmin_bound_skips += result.argmin.bound_skips;
    for (auto& group : result.groups) {
      solution.groups.push_back(std::move(group));
    }
  }
  solution.solve_seconds = SecondsSince(start);
  return solution;
}

}  // namespace thrifty
