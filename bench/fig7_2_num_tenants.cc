// Reproduces Figure 7.2: consolidation effectiveness, tenant-group size,
// and execution time as the number of tenants T varies (1000/5000/10000).
//
// Expected shape (paper): effectiveness is largely insensitive to T with a
// minor increase (79.3% -> 83.3% from 1000 to 10000 tenants) because a
// larger pool gives the grouping more complementary candidates; the 2-step
// heuristic beats FFD throughout (the paper's headline: at T=5000 Thrifty
// serves all tenants with ~18.7% of the requested nodes, i.e. ~81.3%
// effectiveness, with R=3 and P=99.9%).
//
// Each T point (workload generation + both solvers) is an independent
// trial fanned across --jobs workers.

#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "sweep_runner.h"

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "fig7_2_num_tenants";
  BenchOptions options =
      ParseBenchArgs(argc, argv, bench_name,
                     kJobsFlag | kSolverJobsFlag | kSeedFlag);
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();
  PrintBanner("Figure 7.2: Varying Number of Tenants T",
              "theta=0.8, R=3, P=99.9%, E=10s, 14-day horizon.");

  const int tenant_counts[] = {1000, 5000, 10000};
  struct PointResult {
    double active_ratio = 0;
    std::vector<SolverRow> rows;
  };
  SweepRunner runner({options.jobs, options.seed});
  auto points = runner.Map<PointResult>(
      std::size(tenant_counts), [&](TrialContext& context) {
        ExperimentConfig config;
        config.num_tenants = tenant_counts[context.trial_index];
        config.seed = options.seed;
        config.solver_jobs = options.solver_jobs;
        Workload workload = GenerateWorkload(catalog, config);
        auto vectors = EpochizeWorkload(workload, config.epoch_size);
        PointResult result;
        result.active_ratio = workload.average_active_ratio;
        result.rows = RunBothSolvers(workload, vectors,
                                     config.replication_factor,
                                     config.sla_fraction,
                                     options.solver_jobs);
        return result;
      });

  TablePrinter table({"T", "active ratio", "FFD eff.", "2-step eff.",
                      "FFD grp", "2-step grp",
                      "2-step nodes used/requested"});
  TablePrinter timings({"T", "FFD time (s)", "2-step time (s)"});
  for (size_t p = 0; p < std::size(tenant_counts); ++p) {
    const SolverRow& ffd = points[p].rows[0];
    const SolverRow& two_step = points[p].rows[1];
    std::string t = std::to_string(tenant_counts[p]);
    table.AddRow({t, FormatPercent(points[p].active_ratio, 1),
                  FormatPercent(ffd.effectiveness, 1),
                  FormatPercent(two_step.effectiveness, 1),
                  FormatDouble(ffd.average_group_size, 1),
                  FormatDouble(two_step.average_group_size, 1),
                  std::to_string(two_step.nodes_used) + "/" +
                      std::to_string(two_step.nodes_requested)});
    timings.AddRow({t, FormatDouble(ffd.solve_seconds, 2),
                    FormatDouble(two_step.solve_seconds, 2)});
    report.AddMetric("ffd_solve_seconds_t" + t, ffd.solve_seconds);
    report.AddMetric("two_step_solve_seconds_t" + t, two_step.solve_seconds);
    report.AddMetric("two_step_effectiveness_t" + t, two_step.effectiveness);
  }
  table.Print(std::cout);
  std::cout << "\nSolver wall-clock (non-deterministic, excluded from the "
               "fingerprint):\n";
  timings.Print(std::cout);
  std::cout << "\nHeadline check (paper: at T=5000 Thrifty uses only 18.7% "
               "of requested nodes -> 81.3% effectiveness).\n";

  report.SetResultsTable(table);
  report.AddMetric("trials", static_cast<double>(std::size(tenant_counts)));
  return report.Finish();
}
