// Reproduces Figure 7.3: consolidation effectiveness, tenant-group size,
// and execution time as the tenant size distribution skew theta varies
// (0.1 ... 0.99; smaller = closer to uniform sizes, larger = more small
// tenants).
//
// Expected shape (paper): the 2-step heuristic is much less sensitive to
// theta than FFD, because step 1 (size-homogeneous initial groups) shields
// it from size-mix effects.
//
// Each theta point (workload generation + both solvers) is an independent
// trial fanned across --jobs workers.

#include <iostream>

#include "bench_util.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "sweep_runner.h"

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "fig7_3_tenant_distribution";
  BenchOptions options =
      ParseBenchArgs(argc, argv, bench_name,
                     kJobsFlag | kSolverJobsFlag | kSeedFlag);
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();
  PrintBanner("Figure 7.3: Varying Tenant Distribution theta",
              "T=5000, R=3, P=99.9%, E=10s, 14-day horizon.");

  const double thetas[] = {0.1, 0.2, 0.5, 0.8, 0.99};
  SweepRunner runner({options.jobs, options.seed});
  auto points = runner.Map<std::vector<SolverRow>>(
      std::size(thetas), [&](TrialContext& context) {
        ExperimentConfig config;
        config.zipf_theta = thetas[context.trial_index];
        config.seed = options.seed;
        config.solver_jobs = options.solver_jobs;
        Workload workload = GenerateWorkload(catalog, config);
        auto vectors = EpochizeWorkload(workload, config.epoch_size);
        return RunBothSolvers(workload, vectors, config.replication_factor,
                              config.sla_fraction, options.solver_jobs);
      });

  TablePrinter table({"theta", "FFD eff.", "2-step eff.", "FFD grp",
                      "2-step grp"});
  TablePrinter timings({"theta", "FFD time (s)", "2-step time (s)"});
  for (size_t p = 0; p < std::size(thetas); ++p) {
    const SolverRow& ffd = points[p][0];
    const SolverRow& two_step = points[p][1];
    std::string theta = FormatDouble(thetas[p], 2);
    table.AddRow({theta, FormatPercent(ffd.effectiveness, 1),
                  FormatPercent(two_step.effectiveness, 1),
                  FormatDouble(ffd.average_group_size, 1),
                  FormatDouble(two_step.average_group_size, 1)});
    timings.AddRow({theta, FormatDouble(ffd.solve_seconds, 2),
                    FormatDouble(two_step.solve_seconds, 2)});
    report.AddMetric("ffd_solve_seconds_theta" + theta, ffd.solve_seconds);
    report.AddMetric("two_step_solve_seconds_theta" + theta,
                     two_step.solve_seconds);
    report.AddMetric("two_step_effectiveness_theta" + theta,
                     two_step.effectiveness);
  }
  table.Print(std::cout);
  std::cout << "\nSolver wall-clock (non-deterministic, excluded from the "
               "fingerprint):\n";
  timings.Print(std::cout);

  report.SetResultsTable(table);
  report.AddMetric("trials", static_cast<double>(std::size(thetas)));
  return report.Finish();
}
