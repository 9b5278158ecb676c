// Integration tests: the full Thrifty pipeline — log generation, advising,
// deployment, replay with SLA accounting, and lightweight elastic scaling.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
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

TEST(EndToEndTest, GenerateAdviseDeployReplay) {
  QueryCatalog catalog = QueryCatalog::Default();
  // Step 1 + 2: a small §7.1 population over two node sizes, 5-day logs.
  SessionLibrary library(&catalog, {2, 4}, /*sessions_per_class=*/5,
                         Rng(2001));
  PopulationOptions pop_options;
  pop_options.node_sizes = {2, 4};
  Rng rng(2002);
  auto tenants_result = GenerateTenantPopulation(12, pop_options, &rng);
  ASSERT_TRUE(tenants_result.ok());
  std::vector<TenantSpec> tenants = *tenants_result;
  LogComposerOptions composer_options;
  composer_options.horizon_days = 5;
  LogComposer composer(&library, composer_options);
  Rng compose_rng(2003);
  auto logs_result = composer.Compose(&tenants, &compose_rng);
  ASSERT_TRUE(logs_result.ok());
  const std::vector<TenantLog>& logs = *logs_result;

  // Advise on the full history.
  AdvisorOptions advisor_options;
  advisor_options.replication_factor = 2;
  advisor_options.sla_fraction = 0.99;
  advisor_options.epoch_size = 30 * kSecond;
  DeploymentAdvisor advisor(advisor_options);
  auto output = advisor.Advise(tenants, logs, 0, composer.horizon_end());
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_TRUE(output->excluded_tenants.empty());
  ASSERT_GT(output->plan.groups.size(), 0u);
  EXPECT_GT(output->plan.ConsolidationEffectiveness(), 0.0);

  // Deploy on a cluster sized exactly to the plan and replay the history
  // ("the tenant history repeats itself").
  SimEngine engine;
  Cluster cluster(static_cast<int>(output->plan.TotalNodesUsed()), &engine);
  ServiceOptions service_options;
  service_options.replication_factor = 2;
  service_options.sla_fraction = 0.99;
  service_options.elastic_scaling = false;
  ThriftyService service(&engine, &cluster, &catalog, service_options);
  ASSERT_TRUE(service.Deploy(output->plan).ok());
  ASSERT_TRUE(service.ScheduleLogReplay(logs).ok());
  engine.Run();

  // Every query completed, and the SLA attainment is at least P (the
  // grouping was computed on exactly this history, so breaches can only
  // come from epoch-granularity effects).
  size_t total_queries = 0;
  for (const auto& log : logs) total_queries += log.entries.size();
  EXPECT_EQ(service.metrics().completed, total_queries);
  EXPECT_GE(service.metrics().SlaAttainment(), 0.99);
}

TEST(EndToEndTest, ElasticScalingRescuesOveractiveGroup) {
  QueryCatalog catalog = QueryCatalog::Default();
  SimEngine engine;
  Cluster cluster(8, &engine);

  // One group of four 2-node tenants served by a single MPPDB (R = 1).
  DeploymentPlan plan;
  plan.replication_factor = 1;
  plan.sla_fraction = 0.95;
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
  options.sla_fraction = 0.95;
  options.elastic_scaling = true;
  options.scaling.window = 2 * kHour;
  options.scaling.warmup = 2 * kHour;
  options.scaling.check_interval = 5 * kMinute;
  ThriftyService service(&engine, &cluster, &catalog, options);
  ASSERT_TRUE(service.Deploy(plan).ok());

  // Tenants 1 and 2 go rogue: a 50-second query every minute, far beyond
  // any history. Tenant 0 stays sparse.
  TemplateId q6 = *catalog.FindByName("TPCH-Q6");  // ~15 s on 2 nodes/200 GB
  const SimTime horizon = 10 * kHour;
  for (SimTime t = 0; t < horizon; t += 60 * kSecond) {
    for (TenantId hog : {1, 2}) {
      engine.ScheduleAt(t, [&service, hog, q6](SimTime) {
        (void)service.SubmitQuery(hog, q6);
      });
    }
  }
  for (SimTime t = 0; t < horizon; t += 30 * kMinute) {
    engine.ScheduleAt(t, [&service, q6](SimTime) {
      (void)service.SubmitQuery(0, q6);
    });
  }
  engine.RunUntil(horizon);

  // A scaling event fired, identified at least one of the hogs, created a
  // new MPPDB (nodes came from the hibernated pool), and the router now
  // sends the victim to its dedicated instance.
  ASSERT_TRUE(service.scaler() != nullptr);
  const auto& events = service.scaler()->events();
  ASSERT_GE(events.size(), 1u);
  const ScalingEvent& event = events[0];
  EXPECT_GT(event.detected_time, 0);
  ASSERT_FALSE(event.tenants.empty());
  for (TenantId victim : event.tenants) {
    EXPECT_TRUE(victim == 1 || victim == 2) << victim;
  }
  EXPECT_EQ(event.new_mppdb_nodes, 2);
  ASSERT_GT(event.ready_time, event.detected_time);
  // Table 5.1 economics: loading 200 GB dominates; the new MPPDB took
  // roughly 2.8 simulated hours to prepare.
  double prep_hours =
      DurationToSeconds(event.ready_time - event.detected_time) / 3600;
  EXPECT_NEAR(prep_hours, 2.9, 0.5);

  auto group_router = service.router()->RouterForGroup(0);
  ASSERT_TRUE(group_router.ok());
  for (TenantId victim : event.tenants) {
    EXPECT_TRUE((*group_router)->HasDedicated(victim));
  }
  EXPECT_GT(cluster.nodes_in_use(), 2);
  // The group landed on the re-consolidation list.
  EXPECT_TRUE(service.scaler()->reconsolidation_list().count(0) > 0);

  // RT-TTP recovers once the victims are excluded from the group's
  // bookkeeping (the scaling event itself is evidence that RT-TTP was
  // below P at detection time — the scaler only fires on a breach).
  auto monitor = service.activity_monitor()->GroupMonitor(0);
  ASSERT_TRUE(monitor.ok());
  EXPECT_GE((*monitor)->RtTtp(horizon), 0.95);
}

TEST(EndToEndTest, NodeFailureDegradesThenRecovers) {
  QueryCatalog catalog = QueryCatalog::Default();
  SimEngine engine;
  Cluster cluster(8, &engine);
  DeploymentPlan plan;
  plan.replication_factor = 2;
  plan.sla_fraction = 0.999;
  GroupDeployment group;
  group.group_id = 0;
  TenantSpec spec;
  spec.id = 0;
  spec.requested_nodes = 4;
  spec.data_gb = 400;
  group.tenants.push_back(spec);
  group.cluster.mppdb_nodes = {4, 4};
  plan.groups.push_back(group);

  ServiceOptions options;
  options.replication_factor = 2;
  options.elastic_scaling = false;
  ThriftyService service(&engine, &cluster, &catalog, options);
  ASSERT_TRUE(service.Deploy(plan).ok());

  // Fail one node of MPPDB_0, then submit: the query still completes
  // (degraded), and after auto-replacement full speed returns.
  ASSERT_TRUE(cluster.InjectNodeFailure(0).ok());
  size_t violations = 0;
  service.set_completion_hook([&](const QueryOutcome& o) {
    if (o.NormalizedPerformance() > 1.01) ++violations;
  });
  TemplateId q1 = *catalog.FindByName("TPCH-Q1");
  ASSERT_TRUE(service.SubmitQuery(0, q1).ok());
  engine.Run();
  EXPECT_EQ(service.metrics().completed, 1u);
  EXPECT_EQ(violations, 1u);  // degraded instance missed the SLA

  // Replacement has arrived by now; the next query is full speed.
  ASSERT_TRUE(service.SubmitQuery(0, q1).ok());
  engine.Run();
  EXPECT_EQ(service.metrics().completed, 2u);
  EXPECT_EQ(violations, 1u);
}

}  // namespace
}  // namespace thrifty
