// Reproduces Figure 7.7: lightweight elastic scaling in a tenant-group.
//
// Setup mirrors §7.5: one tenant-group of 4-node tenants (the paper's group
// had 14 members; R = 3, P = 99.9%) serves its normal replayed history. At
// time Y we "manually take over a tenant and continuously submit queries on
// behalf of that tenant". The experiment runs twice — elastic scaling
// disabled (panels a/b) and enabled (panels c/d) — and prints, per 2-hour
// bucket, the group's RT-TTP and the worst normalized query performance
// (1.0 = as fast as in an isolated environment).
//
// Expected shape (paper): without scaling, RT-TTP degrades and stays low
// while over-active periods produce queries 1.2x-1.8x slower; with scaling,
// Thrifty detects the breach (identification takes ~milliseconds here;
// ~2 s in the paper), spends hours of simulated time bulk loading only the
// over-active tenant's data (Table 5.1 economics), and after the new MPPDB
// is ready the RT-TTP returns above P and SLA violations stop.
//
// The two runs (scaling off / scaling on) are independent trials, each with
// its own SimEngine/Cluster/ThriftyService, fanned across --jobs workers.
// The canonical figure uses seed 4242; --seed overrides it.

#include <algorithm>
#include <iostream>
#include <map>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/deployment_advisor.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/query_model.h"
#include "placement/deployment_plan.h"
#include "scaling/elastic_scaler.h"
#include "sim/engine.h"
#include "workload/log_generator.h"
#include "workload/query_log.h"
#include "workload/tenant.h"
#include "workload/tenant_population.h"

namespace thrifty {
namespace {

struct TraceBucket {
  double rt_ttp = 1.0;
  double worst_normalized = 0.0;
  int violations = 0;
};

struct RunResult {
  std::map<int, TraceBucket> buckets;  // bucket index (2 h) -> stats
  std::vector<ScalingEvent> events;
  size_t completed = 0;
  size_t violations = 0;
};

constexpr SimDuration kBucket = 2 * kHour;

RunResult RunOnce(bool scaling_enabled, const DeploymentPlan& plan,
                  const std::vector<TenantLog>& logs, TenantId hog,
                  const QueryCatalog& catalog, SimTime takeover,
                  SimTime horizon) {
  SimEngine engine;
  Cluster cluster(static_cast<int>(plan.TotalNodesUsed()) + 8, &engine);
  ServiceOptions options;
  options.replication_factor = plan.replication_factor;
  options.sla_fraction = plan.sla_fraction;
  options.elastic_scaling = scaling_enabled;
  options.scaling.warmup = 24 * kHour;
  options.scaling.check_interval = 10 * kMinute;
  ThriftyService service(&engine, &cluster, &catalog, options);
  if (!service.Deploy(plan).ok()) throw std::runtime_error("Deploy failed");
  if (!service.ScheduleLogReplay(logs).ok()) {
    throw std::runtime_error("ScheduleLogReplay failed");
  }

  RunResult result;
  service.set_completion_hook([&](const QueryOutcome& outcome) {
    int bucket = static_cast<int>(outcome.real.finish_time / kBucket);
    TraceBucket& b = result.buckets[bucket];
    double normalized = outcome.NormalizedPerformance();
    b.worst_normalized = std::max(b.worst_normalized, normalized);
    if (normalized > 1.01) {
      ++b.violations;
      ++result.violations;
    }
    ++result.completed;
  });

  // The takeover: near-continuous submission — a new Q1 every 12 seconds
  // (Q1 runs ~9 s on the tenant's 4-node class, so the tenant is ~75%
  // utilized alone and continuously active whenever anything shares its
  // MPPDB), the paper's "continuously submitted queries ... on behalf of
  // that tenant" without driving the instance past saturation.
  TemplateId takeover_query = *catalog.FindByName("TPCH-Q1");
  for (SimTime t = takeover; t < horizon; t += 12 * kSecond) {
    engine.ScheduleAt(t, [&service, hog, takeover_query](SimTime) {
      (void)service.SubmitQuery(hog, takeover_query);
    });
  }

  // RT-TTP probes every 30 minutes (recorded into 2 h buckets as the
  // bucket-end value).
  for (SimTime t = 30 * kMinute; t <= horizon; t += 30 * kMinute) {
    engine.ScheduleAt(t, [&service, &result](SimTime now) {
      auto monitor = service.activity_monitor()->GroupMonitor(0);
      if (monitor.ok()) {
        result.buckets[static_cast<int>(now / kBucket)].rt_ttp =
            (*monitor)->RtTtp(now);
      }
    });
  }

  engine.RunUntil(horizon);
  if (service.scaler() != nullptr) {
    result.events = service.scaler()->events();
  }
  return result;
}

}  // namespace
}  // namespace thrifty

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "fig7_7_elastic_scaling";
  BenchOptions options = ParseBenchArgs(argc, argv, bench_name,
                                        kJobsFlag | kSeedFlag);
  options.seed = options.SeedOr(4242);  // canonical figure seed
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();

  // Build a realistic tenant-group: a 4-node-only population grouped under
  // Table 7.1 defaults; take the first group (the paper's example group
  // had 14 tenants requesting 4-node MPPDBs). The canonical figure was
  // produced with seed 4242, so keep that unless --seed is given.
  Rng rng(options.seed);
  SessionLibrary library(&catalog, {4}, /*sessions_per_class=*/25,
                         rng.Fork(1));
  PopulationOptions pop;
  pop.node_sizes = {4};
  Rng pop_rng = rng.Fork(2);
  auto tenants_result = GenerateTenantPopulation(40, pop, &pop_rng);
  if (!tenants_result.ok()) return 1;
  std::vector<TenantSpec> tenants = *tenants_result;
  LogComposerOptions composer_options;
  composer_options.horizon_days = 5;
  LogComposer composer(&library, composer_options);
  Rng compose_rng = rng.Fork(3);
  auto logs_result = composer.Compose(&tenants, &compose_rng);
  if (!logs_result.ok()) return 1;

  AdvisorOptions advisor_options;  // R=3, P=99.9%, E=10s
  DeploymentAdvisor advisor(advisor_options);
  auto advised = advisor.Advise(tenants, *logs_result, 0,
                                composer.horizon_end());
  if (!advised.ok() || advised->plan.groups.empty()) return 1;

  // Restrict everything to the first tenant-group.
  DeploymentPlan plan;
  plan.replication_factor = advised->plan.replication_factor;
  plan.sla_fraction = advised->plan.sla_fraction;
  plan.groups.push_back(advised->plan.groups[0]);
  plan.groups[0].group_id = 0;
  std::vector<TenantLog> group_logs;
  for (const auto& member : plan.groups[0].tenants) {
    for (const auto& log : *logs_result) {
      if (log.tenant_id == member.id) group_logs.push_back(log);
    }
  }
  TenantId hog = plan.groups[0].tenants[0].id;

  const SimTime takeover = 30 * kHour;  // the paper's time Y
  const SimTime horizon = 5 * kDay;

  PrintBanner(
      "Figure 7.7: Lightweight Elastic Scaling in a Tenant Group",
      "Group of " + std::to_string(plan.groups[0].tenants.size()) +
          " tenants requesting 4-node MPPDBs, R=3, P=99.9%. Tenant " +
          std::to_string(hog) + " is taken over at t=30h (continuous "
          "queries).");

  std::vector<RunResult> runs(2);
  auto pool = MakeThreadPool(options.jobs);
  ParallelFor(pool.get(), runs.size(), [&](size_t t) {
    runs[t] = RunOnce(/*scaling_enabled=*/t == 1, plan, group_logs, hog,
                      catalog, takeover, horizon);
  });
  const RunResult& off = runs[0];
  const RunResult& on = runs[1];

  TablePrinter table({"t (h)", "RT-TTP off", "worst perf off", "viol off",
                      "RT-TTP on", "worst perf on", "viol on"});
  int last_bucket = static_cast<int>(horizon / kBucket);
  for (int bucket = 12; bucket < last_bucket; ++bucket) {
    const TraceBucket o = off.buckets.count(bucket) ? off.buckets.at(bucket)
                                                    : TraceBucket{};
    const TraceBucket n = on.buckets.count(bucket) ? on.buckets.at(bucket)
                                                   : TraceBucket{};
    table.AddRow({std::to_string(bucket * 2),
                  FormatPercent(o.rt_ttp, 2),
                  FormatDouble(o.worst_normalized, 2),
                  std::to_string(o.violations),
                  FormatPercent(n.rt_ttp, 2),
                  FormatDouble(n.worst_normalized, 2),
                  std::to_string(n.violations)});
  }
  table.Print(std::cout);

  std::cout << "\nScaling disabled: " << off.completed
            << " queries completed, " << off.violations
            << " SLA violations.\n";
  std::cout << "Scaling enabled:  " << on.completed
            << " queries completed, " << on.violations
            << " SLA violations.\n";
  if (!on.events.empty()) {
    const ScalingEvent& e = on.events[0];
    std::cout << "\nScaling event: breach detected at t="
              << FormatDouble(DurationToSeconds(e.detected_time) / 3600, 1)
              << "h (paper's time Z); over-active tenant(s):";
    for (TenantId t : e.tenants) std::cout << " " << t;
    std::cout << "; identification took "
              << FormatDouble(e.identification_seconds * 1000, 1)
              << " ms (paper: ~2 s); new " << e.new_mppdb_nodes
              << "-node MPPDB ready at t="
              << FormatDouble(DurationToSeconds(e.ready_time) / 3600, 1)
              << "h (paper's time U; loading dominates per Table 5.1).\n";
  } else {
    std::cout << "\nWARNING: no scaling event fired.\n";
  }

  report.SetResultsTable(table);
  report.AddMetric("completed_off", static_cast<double>(off.completed));
  report.AddMetric("violations_off", static_cast<double>(off.violations));
  report.AddMetric("completed_on", static_cast<double>(on.completed));
  report.AddMetric("violations_on", static_cast<double>(on.violations));
  report.AddMetric("scaling_events", static_cast<double>(on.events.size()));
  return report.Finish();
}
