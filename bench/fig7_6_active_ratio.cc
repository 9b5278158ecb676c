// Reproduces Figure 7.6: consolidation effectiveness under higher active
// tenant ratios (§7.4) — the log-composition modifications:
//   (-)  default: 7 time zones, lunch hour          (paper ratio 11.9%)
//   (1)  offsets {+0, +3} only (all North America)  (paper ratio 25.1%)
//   (2)  (1) plus no lunch hour                     (paper ratio 30.7%)
//   (3)  all +0 (west coast) and no lunch hour      (paper ratio 34.4%)
//
// Expected shape (paper): effectiveness of the 2-step heuristic drops from
// ~81% to ~35% as concentration rises, and the average group shrinks to
// ~5 tenants (R=3 -> three MPPDBs serve five tenants).
//
// The paper's rising "active tenant ratio" numbers correspond to the
// conditional (busy-epoch) ratio: the time-average ratio is invariant to
// concentrating the same activity into fewer clock hours.
//
// Each scenario (workload generation + ratio computation + both solvers)
// is an independent trial fanned across --jobs workers.

#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "sweep_runner.h"
#include "workload/query_log.h"

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "fig7_6_active_ratio";
  BenchOptions options =
      ParseBenchArgs(argc, argv, bench_name,
                     kJobsFlag | kSolverJobsFlag | kSeedFlag);
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();
  PrintBanner("Figure 7.6: Higher Active Tenant Ratio",
              "T=5000, theta=0.8, R=3, P=99.9%, E=10s, 14-day horizon.");

  struct Scenario {
    const char* name;
    std::vector<int> offsets;
    bool lunch;
  };
  const Scenario scenarios[] = {
      {"default (7 zones)", {0, 3, 5, 8, 16, 17, 19}, true},
      {"(1) offsets {0,3}", {0, 3}, true},
      {"(2) {0,3}, no lunch", {0, 3}, false},
      {"(3) all +0, no lunch", {0}, false},
  };

  struct ScenarioResult {
    double busy_ratio = 0;
    std::vector<SolverRow> rows;
  };
  SweepRunner runner({options.jobs, options.seed});
  auto results = runner.Map<ScenarioResult>(
      std::size(scenarios), [&](TrialContext& context) {
        const Scenario& scenario = scenarios[context.trial_index];
        ExperimentConfig config;
        config.seed = options.seed;
        config.solver_jobs = options.solver_jobs;
        config.composer.offset_hours = scenario.offsets;
        config.composer.lunch_break = scenario.lunch;
        Workload workload = GenerateWorkload(catalog, config);

        // Conditional (busy-epoch) active-tenant ratio of the composed logs.
        std::vector<TenantLog> pseudo_logs(workload.activity.size());
        for (size_t i = 0; i < workload.activity.size(); ++i) {
          pseudo_logs[i].tenant_id = workload.tenants[i].id;
          for (const auto& iv : workload.activity[i].intervals()) {
            pseudo_logs[i].entries.push_back({iv.begin, 0, iv.length(), -1});
          }
        }
        ScenarioResult result;
        result.busy_ratio = ConditionalActiveTenantRatio(
            pseudo_logs, 0, workload.horizon_end, config.epoch_size);

        auto vectors = EpochizeWorkload(workload, config.epoch_size);
        result.rows = RunBothSolvers(workload, vectors,
                                     config.replication_factor,
                                     config.sla_fraction,
                                     options.solver_jobs);
        return result;
      });

  TablePrinter table({"scenario", "busy-epoch ratio", "FFD eff.",
                      "2-step eff.", "FFD grp", "2-step grp"});
  TablePrinter timings({"scenario", "FFD time (s)", "2-step time (s)"});
  for (size_t s = 0; s < std::size(scenarios); ++s) {
    const ScenarioResult& result = results[s];
    table.AddRow({scenarios[s].name, FormatPercent(result.busy_ratio, 1),
                  FormatPercent(result.rows[0].effectiveness, 1),
                  FormatPercent(result.rows[1].effectiveness, 1),
                  FormatDouble(result.rows[0].average_group_size, 1),
                  FormatDouble(result.rows[1].average_group_size, 1)});
    timings.AddRow({scenarios[s].name,
                    FormatDouble(result.rows[0].solve_seconds, 2),
                    FormatDouble(result.rows[1].solve_seconds, 2)});
    report.AddMetric("busy_ratio_s" + std::to_string(s), result.busy_ratio);
    report.AddMetric("two_step_effectiveness_s" + std::to_string(s),
                     result.rows[1].effectiveness);
  }
  table.Print(std::cout);
  std::cout << "\nSolver wall-clock (non-deterministic, excluded from the "
               "fingerprint):\n";
  timings.Print(std::cout);

  report.SetResultsTable(table);
  report.AddMetric("trials", static_cast<double>(std::size(scenarios)));
  return report.Finish();
}
