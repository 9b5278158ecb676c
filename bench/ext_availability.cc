// Extension experiment (§4.4, R2): availability under node failures.
//
// "Node failure is handled directly by the MPPDB. All major MPPDB products
// can still stay online even with (some) node failure. Thrifty will replace
// a failed node by starting a new node upon receiving node failure
// notification." This bench injects failures into a serving group and
// reports: no query is lost, queries on the degraded MPPDB slow down
// proportionally to the lost nodes, replacement restores full speed after
// one node-start time, and Algorithm 1 keeps routing around busy replicas
// throughout.
//
// The scenario is replicated 8 times as independent trials fanned across
// --jobs workers: trial 0 uses the canonical failure times (2h and 4h),
// the other trials jitter the failure times by up to +/-30 minutes drawn
// from the trial's deterministic Rng stream, checking that the availability
// behaviour is robust to when failures land, not an artefact of one timing.

#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stats.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/query_model.h"
#include "placement/deployment_plan.h"
#include "sim/engine.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

struct TrialResult {
  size_t submitted = 0;
  size_t completed = 0;
  size_t degraded = 0;
  double worst_normalized = 0;
  double sla_attainment = 0;
  int failures_injected = 0;
  bool ok = false;
};

TrialResult RunScenario(const QueryCatalog& catalog, SimTime first_failure,
                        SimTime second_failure) {
  SimEngine engine;
  Cluster cluster(16, &engine);

  DeploymentPlan plan;
  plan.replication_factor = 3;
  plan.sla_fraction = 0.999;
  GroupDeployment group;
  group.group_id = 0;
  for (TenantId id = 0; id < 6; ++id) {
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = 4;
    spec.data_gb = 400;
    group.tenants.push_back(spec);
  }
  group.cluster.mppdb_nodes = {4, 4, 4};
  plan.groups.push_back(group);

  ServiceOptions options;
  options.replication_factor = 3;
  options.elastic_scaling = false;
  ThriftyService service(&engine, &cluster, &catalog, options);
  if (!service.Deploy(plan).ok()) throw std::runtime_error("Deploy failed");

  TrialResult result;
  RunningStats normalized;
  service.set_completion_hook([&](const QueryOutcome& outcome) {
    double n = outcome.NormalizedPerformance();
    normalized.Add(n);
    if (n > 1.01) ++result.degraded;
  });

  // Steady single-tenant load: one Q1 every 4 minutes from a rotating
  // tenant (at most one active at a time -> always a dedicated MPPDB).
  TemplateId q1 = *catalog.FindByName("TPCH-Q1");
  const SimTime horizon = 8 * kHour;
  int turn = 0;
  for (SimTime t = 0; t < horizon; t += 4 * kMinute) {
    TenantId tenant = turn++ % 6;
    engine.ScheduleAt(t, [&service, tenant, q1](SimTime) {
      (void)service.SubmitQuery(tenant, q1);
    });
    ++result.submitted;
  }

  // Fail one node of MPPDB_0 at the first failure time and two nodes of
  // MPPDB_1 at the second; auto-replacement is on.
  engine.ScheduleAt(first_failure, [&cluster](SimTime) {
    (void)cluster.InjectNodeFailure(0);
  });
  engine.ScheduleAt(second_failure, [&cluster](SimTime) {
    (void)cluster.InjectNodeFailure(1);
    (void)cluster.InjectNodeFailure(1);
  });

  engine.RunUntil(horizon);

  result.completed = static_cast<size_t>(normalized.count());
  result.worst_normalized = normalized.max();
  result.sla_attainment = service.metrics().SlaAttainment();
  result.failures_injected = cluster.failures_injected();
  result.ok = result.completed == service.metrics().completed &&
              result.degraded > 0 && result.worst_normalized < 2.2;
  return result;
}

}  // namespace
}  // namespace thrifty

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "ext_availability";
  BenchOptions options = ParseBenchArgs(argc, argv, bench_name,
                                        kJobsFlag | kSeedFlag);
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();

  constexpr size_t kTrials = 8;
  // Trial t's jitter stream is Rng(seed).Fork(t): a function of the seed
  // and the trial index only, never of the schedule or --jobs.
  const Rng root(options.seed);
  std::vector<TrialResult> trials(kTrials);
  auto pool = MakeThreadPool(options.jobs);
  ParallelFor(pool.get(), kTrials, [&](size_t t) {
    SimTime first = 2 * kHour;
    SimTime second = 4 * kHour;
    if (t > 0) {
      Rng rng = root.Fork(t);
      first += rng.NextInt(-30, 30) * kMinute;
      second += rng.NextInt(-30, 30) * kMinute;
    }
    trials[t] = RunScenario(catalog, first, second);
  });

  PrintBanner("Extension: availability under node failures (§4.4)",
              "Three failures injected across two MPPDBs of a serving\n"
              "group; replacements start automatically. Trial 0 uses the\n"
              "canonical 2h/4h failure times; trials 1-7 jitter them.");

  TablePrinter table({"trial", "completed/submitted", "degraded",
                      "worst norm.", "failures", "SLA att.", "ok"});
  bool all_ok = true;
  for (size_t i = 0; i < kTrials; ++i) {
    const TrialResult& t = trials[i];
    all_ok = all_ok && t.ok;
    table.AddRow({i == 0 ? "0 (canonical)" : std::to_string(i),
                  std::to_string(t.completed) + "/" +
                      std::to_string(t.submitted),
                  std::to_string(t.degraded) + " (" +
                      FormatPercent(static_cast<double>(t.degraded) /
                                        static_cast<double>(t.completed),
                                    1) +
                      ")",
                  FormatDouble(t.worst_normalized, 2),
                  std::to_string(t.failures_injected),
                  FormatPercent(t.sla_attainment, 1), t.ok ? "yes" : "NO"});
  }
  table.Print(std::cout);
  std::cout << "\nWorst normalized latency expectation: ~1.33 for a 4-node "
               "MPPDB missing 1 node, ~2.0 missing 2.\n";
  std::cout << "\n";
  report.Gate("all_ok", all_ok,
              "availability behaviour as expected in all trials");

  report.SetResultsTable(table);
  report.AddMetric("trials", static_cast<double>(kTrials));
  report.AddMetric("canonical_worst_normalized", trials[0].worst_normalized);
  return report.Finish();
}
