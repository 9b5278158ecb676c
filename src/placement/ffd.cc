#include "placement/ffd.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "activity/level_set.h"
#include "common/stopwatch.h"

namespace thrifty {

namespace {

double SortScalar(const PackingItem& item, FfdSortKey key) {
  switch (key) {
    case FfdSortKey::kNodesTimesActivity:
      return static_cast<double>(item.nodes) *
             static_cast<double>(item.activity->ActiveEpochs() + 1);
    case FfdSortKey::kActivity:
      return static_cast<double>(item.activity->ActiveEpochs());
    case FfdSortKey::kNodes:
      return static_cast<double>(item.nodes);
  }
  return 0;
}

struct OpenBin {
  std::unique_ptr<GroupLevelSet> levels;
  TenantGroupResult group;
};

}  // namespace

Result<GroupingSolution> SolveFfd(const PackingProblem& problem,
                                  const FfdOptions& options) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  auto start = std::chrono::steady_clock::now();

  std::vector<const PackingItem*> order;
  order.reserve(problem.items.size());
  for (const auto& item : problem.items) order.push_back(&item);
  std::sort(order.begin(), order.end(),
            [&](const PackingItem* a, const PackingItem* b) {
              double ka = SortScalar(*a, options.sort_key);
              double kb = SortScalar(*b, options.sort_key);
              if (ka != kb) return ka > kb;  // decreasing
              return a->tenant_id < b->tenant_id;
            });

  const int r = problem.replication_factor;
  std::vector<OpenBin> bins;
  // Each (item, bin) evaluation is one-shot — the next one is against a
  // different bin — so it merges rather than syncing a ColumnLookup.
  GroupLevelSet::EvalScratch scratch;
  for (const PackingItem* item : order) {
    bool placed = false;
    for (auto& bin : bins) {
      bin.levels->EvaluateAddInto(*item->activity, &scratch);
      if (bin.levels->TtpFromPopcounts(scratch.pops, r) + 1e-12 >=
          problem.sla_fraction) {
        bin.levels->Add(*item->activity);
        bin.group.tenant_ids.push_back(item->tenant_id);
        bin.group.max_nodes = std::max(bin.group.max_nodes, item->nodes);
        placed = true;
        break;
      }
    }
    if (!placed) {
      OpenBin bin;
      bin.levels = std::make_unique<GroupLevelSet>(problem.num_epochs);
      bin.levels->Add(*item->activity);
      bin.group.tenant_ids.push_back(item->tenant_id);
      bin.group.max_nodes = item->nodes;
      bins.push_back(std::move(bin));
    }
  }

  GroupingSolution solution;
  for (auto& bin : bins) {
    bin.group.ttp = bin.levels->Ttp(r);
    bin.group.max_active = bin.levels->MaxActive();
    bin.group.level_set_bytes = bin.levels->MemoryBytes();
    bin.group.level_set_dense_bytes = bin.levels->DenseEquivalentBytes();
    solution.groups.push_back(std::move(bin.group));
  }
  solution.solve_seconds = SecondsSince(start);
  return solution;
}

}  // namespace thrifty
