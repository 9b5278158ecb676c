// Reproduces Table 5.1: starting and bulk loading an MPPDB.
//
// The provisioning model is calibrated to the paper's EC2 measurements
// (~170 s/node start + ~50.55 s/GB loading, i.e. the paper's 1.2 GB/min).
// This bench prints the modeled times for the paper's five rows next to
// the paper's measured values, and demonstrates the timing end-to-end by
// actually provisioning each row through the Cluster's async path — each
// row (plus the 10-node / 1 TB §5.1 example) is an independent trial with
// its own SimEngine/Cluster, fanned across --jobs workers.

#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "common/sim_time.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "mppdb/cluster.h"
#include "mppdb/instance.h"
#include "mppdb/provisioning.h"
#include "sim/engine.h"

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "table5_1_provisioning";
  BenchOptions options = ParseBenchArgs(argc, argv, bench_name,
                                        kJobsFlag | kSeedFlag);
  BenchReport report(bench_name, options);

  ProvisioningModel model;

  PrintBanner(
      "Table 5.1: Starting and Bulk Loading a MPPDB",
      "Modeled node-start + MPPDB-init and bulk-loading times vs the\n"
      "paper's measurements (seconds).");

  struct Row {
    int nodes;
    double data_gb;
    double paper_start;
    double paper_load;
  };
  const Row rows[] = {
      {2, 200, 462, 10172},  {4, 400, 850, 20302},   {6, 600, 1248, 30121},
      {8, 800, 1504, 40853}, {10, 1000, 1779, 50446},
  };

  // Trials 0..4 provision the five paper rows end-to-end through the async
  // path; trial 5 is the §5.1 example (10-node / 1 TB, ~14.5 hours).
  std::vector<SimTime> ready_times(std::size(rows) + 1);
  auto pool = MakeThreadPool(options.jobs);
  ParallelFor(pool.get(), ready_times.size(), [&](size_t t) {
    const int nodes = t < std::size(rows) ? rows[t].nodes : 10;
    const double data_gb = t < std::size(rows) ? rows[t].data_gb : 1000.0;
    SimEngine engine;
    Cluster cluster(nodes, &engine);
    SimTime ready_at = -1;
    auto result = cluster.CreateInstanceAsync(
        nodes, {{0, data_gb}}, [&](MppdbInstance*) { ready_at = engine.now(); });
    if (!result.ok()) throw std::runtime_error("CreateInstanceAsync failed");
    engine.Run();
    if (ready_at < 0) throw std::runtime_error("instance never became ready");
    ready_times[t] = ready_at;
  });

  TablePrinter table({"tenant / data", "start+init (model)", "(paper)",
                      "bulk load (model)", "(paper)", "e2e async"});
  for (size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    table.AddRow({std::to_string(row.nodes) + "-node / " +
                      std::to_string(static_cast<int>(row.data_gb)) + "GB",
                  FormatDouble(DurationToSeconds(model.NodeStartTime(row.nodes)), 0) + "s",
                  FormatDouble(row.paper_start, 0) + "s",
                  FormatDouble(DurationToSeconds(model.BulkLoadTime(row.data_gb)), 0) + "s",
                  FormatDouble(row.paper_load, 0) + "s",
                  FormatDouble(DurationToSeconds(ready_times[i]), 0) + "s"});
  }
  table.Print(std::cout);

  double e2e_hours = DurationToSeconds(ready_times[std::size(rows)]) / 3600;
  std::cout << "\nEnd-to-end async provisioning of 10-node / 1TB: "
            << FormatDouble(e2e_hours, 2)
            << " hours (paper: ~14.5 hours)\n";

  report.SetResultsTable(table);
  report.AddMetric("e2e_10node_1tb_hours", e2e_hours);
  report.AddMetric("trials", static_cast<double>(std::size(rows) + 1));
  return report.Finish();
}
