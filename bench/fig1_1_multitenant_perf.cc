// Reproduces Figure 1.1: query performance in an MPPDB with multi-tenants.
//
//  (a) TPC-H Q1 speedup vs node count — single tenant (1T), x tenants
//      submitting sequentially (xT-SEQ), and x tenants submitting
//      concurrently (xT-CON). Expected shape: Q1 scales out linearly; SEQ
//      lines track 1T; 2T-CON runs 2x slower and 4T-CON 4x slower.
//  (b) Q1 latency of four 2-node tenants: dedicated 2-node MPPDBs (latency
//      A = the SLA) vs one 6-node shared MPPDB with 1 or 2 concurrently
//      active tenants (latencies B and C). Expected: B < C <= A — the
//      second consolidation opportunity.
//  (c) Same as (a) for TPC-H Q19, which does NOT scale out linearly, so
//      the 6-node-shared trick fails for it.
//
// The processor-sharing executor these panels run on is checked against
// its O(k) dense test oracle in tests/executor_equivalence_test.cc.

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "sim/engine.h"

namespace thrifty {
namespace {

// Runs `tenants` copies of one query template on a shared `nodes`-node
// instance, each tenant holding `data_gb`; returns mean per-query latency
// in seconds. Sequential mode runs them one after another; concurrent mode
// submits all at once.
double MeasureLatencySeconds(const QueryTemplate& tmpl, int nodes,
                             double data_gb, int tenants, bool concurrent) {
  SimEngine engine;
  MppdbInstance instance(0, nodes, &engine);
  for (TenantId t = 0; t < tenants; ++t) instance.AddTenant(t, data_gb);
  double total_latency = 0;
  int completed = 0;
  instance.set_completion_callback([&](const QueryCompletion& c) {
    total_latency += DurationToSeconds(c.MeasuredLatency());
    ++completed;
  });
  if (concurrent) {
    for (TenantId t = 0; t < tenants; ++t) {
      QuerySubmission s;
      s.query_id = t;
      s.tenant_id = t;
      Status st = instance.Submit(s, tmpl);
      if (!st.ok()) std::exit(1);
    }
    engine.Run();
  } else {
    for (TenantId t = 0; t < tenants; ++t) {
      QuerySubmission s;
      s.query_id = t;
      s.tenant_id = t;
      Status st = instance.Submit(s, tmpl);
      if (!st.ok()) std::exit(1);
      engine.Run();  // finish before the next tenant submits
    }
  }
  return total_latency / completed;
}

// Prints one speedup panel and appends its rows, prefixed by the query
// name, to `results`.
void SpeedupPanel(const QueryCatalog& catalog, const char* name,
                  TablePrinter* results) {
  const QueryTemplate& tmpl = catalog.Get(*catalog.FindByName(name));
  const double data_gb = 100;  // TPC-H scale factor 100 per tenant
  const std::vector<int> node_counts = {1, 2, 4, 8, 16, 32};
  double base = MeasureLatencySeconds(tmpl, 1, data_gb, 1, false);

  TablePrinter table({"nodes", "1T", "2T-SEQ", "2T-CON", "4T-SEQ", "4T-CON",
                      "ideal"});
  for (int nodes : node_counts) {
    auto speedup = [&](int tenants, bool concurrent) {
      return base /
             MeasureLatencySeconds(tmpl, nodes, data_gb, tenants, concurrent);
    };
    std::vector<std::string> row = {std::to_string(nodes),
                                    FormatDouble(speedup(1, false), 2),
                                    FormatDouble(speedup(2, false), 2),
                                    FormatDouble(speedup(2, true), 2),
                                    FormatDouble(speedup(4, false), 2),
                                    FormatDouble(speedup(4, true), 2),
                                    FormatDouble(nodes, 0)};
    table.AddRow(row);
    row.insert(row.begin(), name);
    results->AddRow(row);
  }
  table.Print(std::cout);
}

}  // namespace
}  // namespace thrifty

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "fig1_1_multitenant_perf";
  BenchOptions options = ParseBenchArgs(argc, argv, bench_name,
                                        kNoSharedFlags);
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();

  PrintBanner(
      "Figure 1.1(a): TPC-H Q1 speedup under multi-tenancy",
      "Speedup relative to 1 node / 1 tenant. xT-SEQ should track 1T;\n"
      "xT-CON should be x times below it (I/O-bound processor sharing).");
  TablePrinter results({"query", "nodes", "1T", "2T-SEQ", "2T-CON",
                        "4T-SEQ", "4T-CON", "ideal"});
  SpeedupPanel(catalog, "TPCH-Q1", &results);

  PrintBanner(
      "Figure 1.1(b): Q1 latency, 4 x 2-node tenants",
      "A = dedicated 2-node MPPDB per tenant (the SLA). B/C = one shared\n"
      "6-node MPPDB with 1 or 2 concurrently active tenants. The second\n"
      "consolidation opportunity requires B < C <= A.");
  {
    const QueryTemplate& q1 = catalog.Get(*catalog.FindByName("TPCH-Q1"));
    double a = MeasureLatencySeconds(q1, 2, 100, 1, false);
    double b = MeasureLatencySeconds(q1, 6, 100, 1, false);
    double c = MeasureLatencySeconds(q1, 6, 100, 2, true);
    TablePrinter table({"point", "setting", "latency (s)", "meets SLA A?"});
    table.AddRow({"A", "dedicated 2-node, 1 active", FormatDouble(a, 1),
                  "(defines SLA)"});
    table.AddRow({"B", "shared 6-node, 1 of 4 active", FormatDouble(b, 1),
                  b <= a ? "yes" : "NO"});
    table.AddRow({"C", "shared 6-node, 2 of 4 active", FormatDouble(c, 1),
                  c <= a ? "yes" : "NO"});
    table.Print(std::cout);
  }

  PrintBanner(
      "Figure 1.1(c): TPC-H Q19 speedup (non-linear scale-out)",
      "Q19's serial fraction caps its speedup, so concurrent execution on\n"
      "a shared MPPDB cannot be absorbed by extra nodes (points E/F).");
  SpeedupPanel(catalog, "TPCH-Q19", &results);

  {
    // The E/F check: shared 6-node with 2 active tenants vs the dedicated
    // 2-node SLA, for the non-linear Q19.
    const QueryTemplate& q19 = catalog.Get(*catalog.FindByName("TPCH-Q19"));
    double a = MeasureLatencySeconds(q19, 2, 100, 1, false);
    double c = MeasureLatencySeconds(q19, 6, 100, 2, true);
    std::cout << "\nQ19 on shared 6-node with 2 active tenants: "
              << FormatDouble(c, 1) << " s vs dedicated-2-node SLA "
              << FormatDouble(a, 1) << " s -> "
              << (c <= a ? "SLA met (unexpected!)"
                         : "SLA violated, as in the paper")
              << "\n";
  }

  report.SetResultsTable(results);
  return report.Finish();
}
