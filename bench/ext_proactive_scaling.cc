// Extension experiment (§5.1 discussion): reactive vs proactive elastic
// scaling.
//
// Same setup as the Fig 7.7 scenario at small scale: a tenant-group on one
// MPPDB (R = 1) whose member goes rogue with a *gradually increasing*
// query rate (so a trend is visible before the hard breach). The reactive
// scaler acts when the 24h RT-TTP has already fallen below P; the proactive
// scaler acts when a sustained decline is predicted to cross P within its
// lead time, buying back part of the hours-long MPPDB preparation.
//
// Reported: detection time, new-MPPDB-ready time, and SLA violations for
// each policy. The two policy runs are independent trials (each with its
// own SimEngine/Cluster/ThriftyService) fanned across --jobs workers.

#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "common/sim_time.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/query_model.h"
#include "placement/deployment_plan.h"
#include "scaling/elastic_scaler.h"
#include "sim/engine.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

struct PolicyResult {
  SimTime detected = 0;
  SimTime ready = 0;
  bool proactive_trigger = false;
  size_t violations = 0;
  size_t completed = 0;
};

PolicyResult RunPolicy(ScalingPolicy policy, const QueryCatalog& catalog) {
  SimEngine engine;
  Cluster cluster(8, &engine);
  DeploymentPlan plan;
  plan.replication_factor = 1;
  plan.sla_fraction = 0.97;
  GroupDeployment group;
  group.group_id = 0;
  for (TenantId id = 0; id < 4; ++id) {
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = 2;
    spec.data_gb = 200;
    group.tenants.push_back(spec);
  }
  group.cluster.mppdb_nodes = {2};
  plan.groups.push_back(group);

  ServiceOptions options;
  options.replication_factor = 1;
  options.sla_fraction = 0.97;
  options.elastic_scaling = true;
  options.scaling.window = 6 * kHour;
  options.scaling.warmup = 3 * kHour;
  options.scaling.check_interval = 15 * kMinute;
  options.scaling.policy = policy;
  options.scaling.proactive_lead = 6 * kHour;
  ThriftyService service(&engine, &cluster, &catalog, options);
  if (!service.Deploy(plan).ok()) throw std::runtime_error("Deploy failed");

  PolicyResult result;
  service.set_completion_hook([&](const QueryOutcome& outcome) {
    ++result.completed;
    if (outcome.NormalizedPerformance() > 1.01) ++result.violations;
  });

  // Tenant 0: sparse baseline. Tenants 1 and 2: ramping load — the
  // inter-arrival gap shrinks from 8 minutes to 1 minute over 12 hours.
  TemplateId q6 = *catalog.FindByName("TPCH-Q6");
  const SimTime horizon = 36 * kHour;
  for (SimTime t = 0; t < horizon; t += 45 * kMinute) {
    engine.ScheduleAt(t, [&service, q6](SimTime) {
      (void)service.SubmitQuery(0, q6);
    });
  }
  for (TenantId hog : {1, 2}) {
    SimTime t = 4 * kHour;
    while (t < horizon) {
      engine.ScheduleAt(t, [&service, hog, q6](SimTime) {
        (void)service.SubmitQuery(hog, q6);
      });
      double progress =
          std::min(1.0, static_cast<double>(t - 4 * kHour) / (12.0 * kHour));
      t += static_cast<SimDuration>((8.0 - 7.0 * progress) * kMinute);
    }
  }
  engine.RunUntil(horizon);

  if (service.scaler() != nullptr && !service.scaler()->events().empty()) {
    const ScalingEvent& event = service.scaler()->events()[0];
    result.detected = event.detected_time;
    result.ready = event.ready_time;
    result.proactive_trigger = event.proactive;
  }
  return result;
}

}  // namespace
}  // namespace thrifty

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "ext_proactive_scaling";
  BenchOptions options = ParseBenchArgs(argc, argv, bench_name,
                                        kJobsFlag | kSeedFlag);
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();

  PrintBanner(
      "Extension: reactive vs proactive elastic scaling (§5.1 discussion)",
      "A gradually ramping over-active tenant; the proactive policy's\n"
      "trend predictor should detect the sustained RT-TTP decline hours\n"
      "before the reactive breach, so the replacement MPPDB is ready\n"
      "earlier and fewer queries violate the SLA.");

  const ScalingPolicy policies[] = {ScalingPolicy::kReactive,
                                    ScalingPolicy::kProactive};
  std::vector<PolicyResult> results(std::size(policies));
  auto pool = MakeThreadPool(options.jobs);
  ParallelFor(pool.get(), results.size(),
              [&](size_t t) { results[t] = RunPolicy(policies[t], catalog); });
  const PolicyResult& reactive = results[0];
  const PolicyResult& proactive = results[1];

  TablePrinter table({"policy", "detected (h)", "MPPDB ready (h)",
                      "trigger", "SLA violations", "queries"});
  auto add = [&](const char* name, const PolicyResult& r) {
    table.AddRow({name,
                  r.detected > 0
                      ? FormatDouble(DurationToSeconds(r.detected) / 3600, 1)
                      : "never",
                  r.ready > 0
                      ? FormatDouble(DurationToSeconds(r.ready) / 3600, 1)
                      : "-",
                  r.detected == 0 ? "-"
                                  : (r.proactive_trigger ? "predicted"
                                                         : "breach"),
                  std::to_string(r.violations),
                  std::to_string(r.completed)});
  };
  add("reactive (paper)", reactive);
  add("proactive (extension)", proactive);
  table.Print(std::cout);

  if (proactive.detected > 0 && reactive.detected > 0) {
    double lead_hours = DurationToSeconds(reactive.detected -
                                          proactive.detected) /
                        3600;
    std::cout << "\nProactive lead gained: " << FormatDouble(lead_hours, 1)
              << " hours.\n";
    report.AddMetric("proactive_lead_hours", lead_hours);
  }

  report.SetResultsTable(table);
  report.AddMetric("reactive_violations",
                   static_cast<double>(reactive.violations));
  report.AddMetric("proactive_violations",
                   static_cast<double>(proactive.violations));
  return report.Finish();
}
