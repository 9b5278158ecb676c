// Reproduces Figure 7.4: consolidation effectiveness, tenant-group size,
// and execution time as the replication factor R varies (1 ... 4).
//
// Expected shape (paper): group size grows strongly with R (4.7 -> 22.2
// tenants from R=1 to R=4) since a group tolerates R concurrently active
// tenants; effectiveness grows only mildly (78.8% -> 82.0%) because R also
// multiplies the MPPDBs each group needs.
//
// The workload is generated once; the 4 x 2 (R, solver) runs are
// independent trials fanned across --jobs workers over the shared const
// workload.

#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "core/deployment_advisor.h"
#include "mppdb/catalog.h"
#include "sweep_runner.h"

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "fig7_4_replication";
  BenchOptions options =
      ParseBenchArgs(argc, argv, bench_name,
                     kJobsFlag | kSolverJobsFlag | kSeedFlag);
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();
  ExperimentConfig config;
  config.seed = options.seed;
  config.solver_jobs = options.solver_jobs;
  const Workload workload = GenerateWorkload(catalog, config);
  const auto vectors = EpochizeWorkload(workload, config.epoch_size);

  PrintBanner("Figure 7.4: Varying Replication Factor R",
              "T=5000, theta=0.8, P=99.9%, E=10s, 14-day horizon.");

  const int replication_factors[] = {1, 2, 3, 4};
  const GroupingSolver solvers[] = {GroupingSolver::kFfd,
                                    GroupingSolver::kTwoStep};
  SweepRunner runner({options.jobs, options.seed});
  auto rows = runner.Map<SolverRow>(
      std::size(replication_factors) * std::size(solvers),
      [&](TrialContext& context) {
        int r = replication_factors[context.trial_index / std::size(solvers)];
        GroupingSolver solver = solvers[context.trial_index % std::size(solvers)];
        return RunSolver(solver, workload, vectors, r, config.sla_fraction,
                         options.solver_jobs);
      });

  TablePrinter table({"R", "FFD eff.", "2-step eff.", "FFD grp",
                      "2-step grp"});
  TablePrinter timings({"R", "FFD time (s)", "2-step time (s)"});
  for (size_t p = 0; p < std::size(replication_factors); ++p) {
    const SolverRow& ffd = rows[p * 2];
    const SolverRow& two_step = rows[p * 2 + 1];
    std::string r = std::to_string(replication_factors[p]);
    table.AddRow({r, FormatPercent(ffd.effectiveness, 1),
                  FormatPercent(two_step.effectiveness, 1),
                  FormatDouble(ffd.average_group_size, 1),
                  FormatDouble(two_step.average_group_size, 1)});
    timings.AddRow({r, FormatDouble(ffd.solve_seconds, 2),
                    FormatDouble(two_step.solve_seconds, 2)});
    report.AddMetric("ffd_solve_seconds_r" + r, ffd.solve_seconds);
    report.AddMetric("two_step_solve_seconds_r" + r, two_step.solve_seconds);
    report.AddMetric("two_step_effectiveness_r" + r, two_step.effectiveness);
  }
  table.Print(std::cout);
  std::cout << "\nSolver wall-clock (non-deterministic, excluded from the "
               "fingerprint):\n";
  timings.Print(std::cout);

  report.SetResultsTable(table);
  report.AddMetric("trials", static_cast<double>(rows.size()));
  return report.Finish();
}
