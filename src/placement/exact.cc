#include "placement/exact.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "activity/level_set.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"

namespace thrifty {

namespace {

struct OpenGroup {
  std::unique_ptr<GroupLevelSet> levels;
  TenantGroupResult group;
};

/// Coordination state shared by every subtree of one solve.
///
/// The incumbent is the pair (best_cost, holder): holder is the index of
/// the canonically earliest subtree that found a best_cost solution, and
/// the winning grouping lives in that subtree's slot. `cost_snapshot`
/// mirrors best_cost for the lock-free fast path of the prune check.
struct SharedSearch {
  explicit SharedSearch(size_t num_subtrees) : slots(num_subtrees) {}

  std::atomic<int64_t> visited{0};
  std::atomic<bool> exhausted{false};
  std::atomic<int64_t> cost_snapshot{INT64_MAX};

  std::mutex mu;
  int64_t best_cost = INT64_MAX;  // guarded by mu
  size_t holder = SIZE_MAX;       // guarded by mu
  std::vector<std::vector<TenantGroupResult>> slots;  // slots[s]: subtree s
};

/// Whether adding `v` to `levels` keeps the group within the SLA (a
/// one-shot evaluation: the next one is against another group state).
bool Fits(const PackingProblem& problem, const GroupLevelSet& levels,
          const ActivityVector& v, GroupLevelSet::EvalScratch* scratch) {
  levels.EvaluateAddInto(v, scratch);
  return levels.TtpFromPopcounts(scratch->pops, problem.replication_factor) +
             1e-12 >=
         problem.sla_fraction;
}

/// Canonical item order: decreasing node count so group max_nodes is fixed
/// by the first member, which tightens the incremental cost.
std::vector<const PackingItem*> CanonicalOrder(const PackingProblem& problem) {
  std::vector<const PackingItem*> order;
  order.reserve(problem.items.size());
  for (const auto& item : problem.items) order.push_back(&item);
  std::sort(order.begin(), order.end(),
            [](const PackingItem* a, const PackingItem* b) {
              if (a->nodes != b->nodes) return a->nodes > b->nodes;
              return a->tenant_id < b->tenant_id;
            });
  return order;
}

/// Depth-first search over one subtree: the items below a fixed prefix of
/// assignment choices. `choices[t]` assigns item t to open group
/// `choices[t]`, or opens a new group when it equals the open-group count.
class SubtreeSearch {
 public:
  SubtreeSearch(const PackingProblem& problem,
                const std::vector<const PackingItem*>& order, int64_t budget,
                size_t subtree, SharedSearch* shared)
      : problem_(problem),
        order_(order),
        budget_(budget),
        subtree_(subtree),
        shared_(shared) {}

  void Run(const std::vector<int>& prefix) {
    int64_t cost = 0;
    for (size_t t = 0; t < prefix.size(); ++t) {
      cost += Apply(order_[t], prefix[t]);
    }
    Recurse(prefix.size(), cost);
  }

 private:
  /// Applies one assignment choice; returns the cost increment. The caller
  /// guarantees feasibility (frontier prefixes are feasibility-checked).
  int64_t Apply(const PackingItem* item, int choice) {
    if (static_cast<size_t>(choice) < open_.size()) {
      open_[static_cast<size_t>(choice)].levels->Add(*item->activity);
      open_[static_cast<size_t>(choice)].group.tenant_ids.push_back(
          item->tenant_id);
      return 0;
    }
    OpenGroup g;
    g.levels = std::make_unique<GroupLevelSet>(problem_.num_epochs);
    g.levels->Add(*item->activity);
    g.group.tenant_ids.push_back(item->tenant_id);
    g.group.max_nodes = item->nodes;
    open_.push_back(std::move(g));
    return static_cast<int64_t>(problem_.replication_factor) * item->nodes;
  }

  /// Whether a node of monotone cost `cost` cannot beat the incumbent.
  ///
  /// Equal cost is pruned only for subtrees at or after the holder: a
  /// lower-indexed subtree may still contain an equal-cost solution that
  /// precedes the incumbent in canonical order, and exploring it is what
  /// keeps the returned solution identical to the serial DFS for every
  /// solver_jobs value.
  bool Pruned(int64_t cost) {
    int64_t snapshot = shared_->cost_snapshot.load(std::memory_order_acquire);
    if (cost > snapshot) return true;
    if (cost < snapshot) return false;
    std::lock_guard<std::mutex> lock(shared_->mu);
    return cost > shared_->best_cost ||
           (cost == shared_->best_cost && subtree_ >= shared_->holder);
  }

  /// Offers a complete assignment to the incumbent.
  void Offer(int64_t cost) {
    std::lock_guard<std::mutex> lock(shared_->mu);
    if (cost > shared_->best_cost ||
        (cost == shared_->best_cost && subtree_ >= shared_->holder)) {
      return;
    }
    shared_->best_cost = cost;
    shared_->holder = subtree_;
    shared_->cost_snapshot.store(cost, std::memory_order_release);
    auto& slot = shared_->slots[subtree_];
    slot.clear();
    for (const auto& g : open_) {
      TenantGroupResult result = g.group;
      result.ttp = g.levels->Ttp(problem_.replication_factor);
      result.max_active = g.levels->MaxActive();
      slot.push_back(std::move(result));
    }
  }

  void Recurse(size_t index, int64_t cost) {
    if (shared_->exhausted.load(std::memory_order_relaxed)) return;
    if (shared_->visited.fetch_add(1, std::memory_order_relaxed) + 1 >
        budget_) {
      shared_->exhausted.store(true, std::memory_order_relaxed);
      return;
    }
    if (Pruned(cost)) return;  // cost is monotone in assignments
    if (index == order_.size()) {
      Offer(cost);
      return;
    }
    const PackingItem* item = order_[index];

    // Try each open group. Deeper recursion pushes (and pops) new groups on
    // open_, so index-based access is required: references into the vector
    // do not survive reallocation.
    const size_t num_open = open_.size();
    for (size_t gi = 0; gi < num_open; ++gi) {
      if (!Fits(problem_, *open_[gi].levels, *item->activity, &scratch_)) {
        continue;
      }
      // Items arrive in decreasing node order, so max_nodes cannot grow.
      open_[gi].levels->Add(*item->activity);
      open_[gi].group.tenant_ids.push_back(item->tenant_id);
      Recurse(index + 1, cost);
      open_[gi].group.tenant_ids.pop_back();
      Status st = open_[gi].levels->Remove(*item->activity);
      (void)st;
    }

    // Open a new group (symmetry-safe: a new group is interchangeable with
    // any other new group, and this is the only way this item starts one).
    OpenGroup g;
    g.levels = std::make_unique<GroupLevelSet>(problem_.num_epochs);
    g.levels->Add(*item->activity);
    g.group.tenant_ids.push_back(item->tenant_id);
    g.group.max_nodes = item->nodes;
    int64_t new_cost =
        cost + static_cast<int64_t>(problem_.replication_factor) * item->nodes;
    open_.push_back(std::move(g));
    Recurse(index + 1, new_cost);
    open_.pop_back();
  }

  const PackingProblem& problem_;
  const std::vector<const PackingItem*>& order_;
  const int64_t budget_;
  const size_t subtree_;
  SharedSearch* shared_;
  std::vector<OpenGroup> open_;
  GroupLevelSet::EvalScratch scratch_;
};

/// Expands the branch-and-bound tree breadth-first — children enumerated in
/// exactly the DFS order (open groups in creation order, then a fresh
/// group) — until at least `target` feasible prefixes exist or every item
/// is assigned. The returned prefixes are therefore in canonical DFS
/// order, which is what the subtree-index tie-break keys on.
std::vector<std::vector<int>> BuildFrontier(
    const PackingProblem& problem,
    const std::vector<const PackingItem*>& order, size_t target,
    int64_t budget, std::atomic<int64_t>* visited, bool* exhausted) {
  GroupLevelSet::EvalScratch scratch;
  std::vector<std::vector<int>> frontier(1);
  size_t depth = 0;
  while (frontier.size() < target && depth < order.size()) {
    const PackingItem* item = order[depth];
    std::vector<std::vector<int>> next;
    next.reserve(frontier.size() * 2);
    for (const auto& prefix : frontier) {
      if (visited->fetch_add(1, std::memory_order_relaxed) + 1 > budget) {
        *exhausted = true;
        return {};
      }
      // Replay the prefix to recover the open groups.
      std::vector<OpenGroup> open;
      for (size_t t = 0; t < depth; ++t) {
        size_t choice = static_cast<size_t>(prefix[t]);
        if (choice < open.size()) {
          open[choice].levels->Add(*order[t]->activity);
        } else {
          OpenGroup g;
          g.levels = std::make_unique<GroupLevelSet>(problem.num_epochs);
          g.levels->Add(*order[t]->activity);
          open.push_back(std::move(g));
        }
      }
      for (size_t gi = 0; gi < open.size(); ++gi) {
        if (!Fits(problem, *open[gi].levels, *item->activity, &scratch)) {
          continue;
        }
        std::vector<int> child = prefix;
        child.push_back(static_cast<int>(gi));
        next.push_back(std::move(child));
      }
      std::vector<int> fresh = prefix;
      fresh.push_back(static_cast<int>(open.size()));
      next.push_back(std::move(fresh));
    }
    frontier = std::move(next);
    ++depth;
  }
  return frontier;
}

}  // namespace

Result<GroupingSolution> SolveExact(const PackingProblem& problem,
                                    const ExactSolverOptions& options) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  auto start = std::chrono::steady_clock::now();
  std::vector<const PackingItem*> order = CanonicalOrder(problem);

  const int jobs = options.solver_jobs < 1 ? 1 : options.solver_jobs;
  // Enough subtrees per worker to balance wildly uneven subtree sizes,
  // capped so frontier replay stays negligible. jobs=1 keeps the whole
  // tree as one subtree — the exact serial search.
  const size_t target =
      jobs <= 1 ? 1 : std::min<size_t>(static_cast<size_t>(jobs) * 8, 256);

  std::atomic<int64_t> frontier_visited{0};
  bool frontier_exhausted = false;
  std::vector<std::vector<int>> frontier =
      BuildFrontier(problem, order, target, options.max_search_nodes,
                    &frontier_visited, &frontier_exhausted);

  SharedSearch shared(frontier.size());
  shared.visited.store(frontier_visited.load());
  if (frontier_exhausted) shared.exhausted.store(true);

  if (!shared.exhausted.load()) {
    std::unique_ptr<ThreadPool> pool =
        MakeThreadPool(frontier.size() > 1 ? jobs : 1);
    ParallelFor(pool.get(), frontier.size(), [&](size_t s) {
      SubtreeSearch search(problem, order, options.max_search_nodes, s,
                           &shared);
      search.Run(frontier[s]);
    });
  }

  if (shared.exhausted.load()) {
    return Status::CapacityExceeded(
        "exact solver search budget exhausted after visiting " +
        std::to_string(shared.visited.load()) + " of " +
        std::to_string(options.max_search_nodes) + " search nodes");
  }

  GroupingSolution solution;
  {
    std::lock_guard<std::mutex> lock(shared.mu);
    solution.groups = std::move(shared.slots[shared.holder]);
  }
  solution.solve_seconds = SecondsSince(start);
  return solution;
}

}  // namespace thrifty
