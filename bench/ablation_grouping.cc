// Ablation study: which parts of the two-step heuristic actually matter?
//
// DESIGN.md calls out three design choices; each is disabled in turn on the
// same workload (T=1200, 7-day horizon, R=3, P=99.9%, E=10s):
//
//   full        - Algorithm 2 as in the paper (size-homogeneous initial
//                 groups; least-active seed; level-cascade candidate
//                 criterion).
//   no-step1    - skip the size-homogeneous split: step 2 runs over the
//                 mixed population (exposes the largest-item inflation).
//   no-cascade  - candidate criterion compares only the top activity level
//                 (no tie cascade to lower levels).
//   random-pick - candidates chosen randomly among TTP-feasible tenants
//                 (keeps step 1 and the feasibility rule, drops the
//                 max-active criterion entirely).
//   ffd-*       - the FFD baseline under its three sort keys.

#include <algorithm>
#include <iostream>
#include <map>

#include "activity/level_set.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "placement/ffd.h"
#include "placement/problem.h"
#include "placement/two_step.h"

namespace thrifty {
namespace {

using bench::Workload;

// Greedy step-2 grouping with configurable seeding/selection.
enum class PickRule { kCascade, kTopLevelOnly, kRandom };

GroupingSolution GreedyGroup(const PackingProblem& problem, bool split_sizes,
                             PickRule rule, Rng rng) {
  std::map<int, std::vector<const PackingItem*>, std::greater<int>> classes;
  for (const auto& item : problem.items) {
    classes[split_sizes ? item.nodes : 0].push_back(&item);
  }
  const int r = problem.replication_factor;
  GroupingSolution solution;
  GroupLevelSet::ColumnLookup lookup;
  GroupLevelSet::EvalScratch scratch;
  for (auto& [key, members] : classes) {
    std::vector<const PackingItem*>& remaining = members;
    std::sort(remaining.begin(), remaining.end(),
              [](const PackingItem* a, const PackingItem* b) {
                if (a->activity->ActiveEpochs() != b->activity->ActiveEpochs())
                  return a->activity->ActiveEpochs() <
                         b->activity->ActiveEpochs();
                return a->tenant_id < b->tenant_id;
              });
    while (!remaining.empty()) {
      GroupLevelSet levels(problem.num_epochs);
      TenantGroupResult group;
      const PackingItem* seed = remaining.front();
      remaining.erase(remaining.begin());
      levels.Add(*seed->activity);
      group.tenant_ids.push_back(seed->tenant_id);
      group.max_nodes = seed->nodes;
      while (!remaining.empty()) {
        lookup.Sync(levels);
        auto evaluate = [&](const PackingItem* item) {
          levels.EvaluateAddInto(*item->activity, lookup, &scratch);
          return scratch.pops;
        };
        size_t best = remaining.size();
        std::vector<size_t> best_pops;
        if (rule == PickRule::kRandom) {
          // First feasible candidate in random order.
          std::vector<size_t> order(remaining.size());
          for (size_t i = 0; i < order.size(); ++i) order[i] = i;
          for (size_t i = order.size(); i > 1; --i) {
            std::swap(order[i - 1], order[rng.NextBounded(i)]);
          }
          for (size_t i : order) {
            auto pops = evaluate(remaining[i]);
            if (levels.TtpFromPopcounts(pops, r) + 1e-12 >=
                problem.sla_fraction) {
              best = i;
              best_pops = std::move(pops);
              break;
            }
          }
          if (best == remaining.size()) break;  // nobody fits
        } else {
          for (size_t i = 0; i < remaining.size(); ++i) {
            auto pops = evaluate(remaining[i]);
            bool better;
            if (best == remaining.size()) {
              better = true;
            } else if (rule == PickRule::kCascade) {
              int cmp = CompareCandidateLevels(pops, best_pops);
              better = cmp < 0 ||
                       (cmp == 0 && remaining[i]->tenant_id >
                                        remaining[best]->tenant_id);
            } else {
              // Top level only: fewer epochs at the would-be max level.
              size_t top_a = pops.empty() ? 0 : pops.size();
              size_t top_b = best_pops.empty() ? 0 : best_pops.size();
              size_t ea = pops.empty() ? 0 : pops.back();
              size_t eb = best_pops.empty() ? 0 : best_pops.back();
              better = top_a < top_b || (top_a == top_b && ea < eb);
            }
            if (better) {
              best = i;
              best_pops = std::move(pops);
            }
          }
          if (levels.TtpFromPopcounts(best_pops, r) + 1e-12 <
              problem.sla_fraction) {
            break;
          }
        }
        const PackingItem* item = remaining[best];
        remaining.erase(remaining.begin() + static_cast<ptrdiff_t>(best));
        levels.Add(*item->activity);
        group.tenant_ids.push_back(item->tenant_id);
        group.max_nodes = std::max(group.max_nodes, item->nodes);
      }
      group.ttp = levels.Ttp(r);
      group.max_active = levels.MaxActive();
      solution.groups.push_back(std::move(group));
    }
  }
  return solution;
}

}  // namespace
}  // namespace thrifty

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "ablation_grouping";
  BenchOptions options =
      ParseBenchArgs(argc, argv, bench_name, kNoSharedFlags);
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();
  ExperimentConfig config;
  config.num_tenants = 1200;
  config.horizon_days = 7;
  Workload workload = GenerateWorkload(catalog, config);
  auto vectors = EpochizeWorkload(workload, config.epoch_size);
  auto problem = MakePackingProblem(workload.tenants, vectors,
                                    config.replication_factor,
                                    config.sla_fraction);
  if (!problem.ok()) return 1;

  PrintBanner("Ablation: two-step heuristic design choices",
              "T=1200, theta=0.8, R=3, P=99.9%, E=10s, 7-day horizon.");

  TablePrinter table({"variant", "effectiveness", "avg group size",
                      "nodes used"});
  // `metric` names the variant's effectiveness in the JSON report.
  auto add_variant = [&](const std::string& name, const std::string& metric,
                         const GroupingSolution& s) {
    Status valid = VerifySolution(*problem, s);
    if (!valid.ok()) {
      std::cerr << name << " produced an invalid solution: " << valid << "\n";
      std::exit(1);
    }
    const double effectiveness = s.ConsolidationEffectiveness(
        config.replication_factor, problem->TotalRequestedNodes());
    table.AddRow({name, FormatPercent(effectiveness, 1),
                  FormatDouble(s.AverageGroupSize(), 1),
                  std::to_string(s.NodesUsed(config.replication_factor))});
    report.AddMetric("effectiveness_" + metric, effectiveness);
  };

  add_variant("full (Algorithm 2)", "full", *SolveTwoStep(*problem));
  add_variant("no-step1 (mixed sizes)", "no_step1",
              GreedyGroup(*problem, false, PickRule::kCascade, Rng(1)));
  add_variant("no-cascade (top level only)", "no_cascade",
              GreedyGroup(*problem, true, PickRule::kTopLevelOnly, Rng(2)));
  add_variant("random-pick (feasible only)", "random_pick",
              GreedyGroup(*problem, true, PickRule::kRandom, Rng(3)));
  struct FfdVariant {
    const char* name;
    const char* metric;
    FfdSortKey key;
  };
  for (const FfdVariant& variant :
       {FfdVariant{"FFD (n x activity)", "ffd_nodes_x_activity",
                   FfdSortKey::kNodesTimesActivity},
        FfdVariant{"FFD (activity)", "ffd_activity", FfdSortKey::kActivity},
        FfdVariant{"FFD (nodes)", "ffd_nodes", FfdSortKey::kNodes}}) {
    FfdOptions ffd_options;
    ffd_options.sort_key = variant.key;
    add_variant(variant.name, variant.metric,
                *SolveFfd(*problem, ffd_options));
  }
  table.Print(std::cout);

  report.SetResultsTable(table);
  return report.Finish();
}
