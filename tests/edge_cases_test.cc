// Edge cases across module boundaries: empty inputs, zero-size data, and
// degenerate configurations that a service operator can plausibly hit.

#include <gtest/gtest.h>

#include "activity/activity_vector.h"
#include "common/bitmap.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/status.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "placement/deployment_plan.h"
#include "placement/exact.h"
#include "placement/ffd.h"
#include "placement/problem.h"
#include "placement/two_step.h"
#include "routing/query_router.h"
#include "sim/engine.h"
#include "workload/query_log.h"
#include "workload/session.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

TEST(EdgeCaseTest, EmptyPackingProblemYieldsEmptySolutions) {
  PackingProblem problem;
  problem.num_epochs = 100;
  auto two_step = SolveTwoStep(problem);
  ASSERT_TRUE(two_step.ok());
  EXPECT_TRUE(two_step->groups.empty());
  EXPECT_EQ(two_step->NodesUsed(3), 0);
  auto ffd = SolveFfd(problem);
  ASSERT_TRUE(ffd.ok());
  EXPECT_TRUE(ffd->groups.empty());
  auto exact = SolveExact(problem);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(exact->groups.empty());
  EXPECT_TRUE(VerifySolution(problem, *two_step).ok());
}

TEST(EdgeCaseTest, SingleTenantProblem) {
  DynamicBitmap bits(50);
  bits.SetRange(0, 50);  // always active — still fine at R >= 1
  std::vector<ActivityVector> activities;
  activities.push_back(ActivityVector::FromBitmap(0, bits));
  std::vector<TenantSpec> tenants(1);
  tenants[0].id = 0;
  tenants[0].requested_nodes = 16;
  auto problem = MakePackingProblem(tenants, activities, 3, 0.999);
  ASSERT_TRUE(problem.ok());
  auto solution = SolveTwoStep(*problem);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->groups.size(), 1u);
  EXPECT_EQ(solution->NodesUsed(3), 48);
  // Consolidation cannot save anything: 48 used vs 16 requested.
  EXPECT_LT(solution->ConsolidationEffectiveness(3, 16), 0);
}

TEST(EdgeCaseTest, AsyncInstanceWithNoDataSkipsLoading) {
  SimEngine engine;
  Cluster cluster(4, &engine);
  SimTime ready_at = -1;
  auto result = cluster.CreateInstanceAsync(
      4, {}, [&](MppdbInstance*) { ready_at = engine.now(); });
  ASSERT_TRUE(result.ok());
  engine.Run();
  EXPECT_EQ(ready_at, cluster.provisioning().NodeStartTime(4));
}

TEST(EdgeCaseTest, SessionWithZeroArrivalWindow) {
  QueryCatalog catalog = QueryCatalog::Default();
  SessionOptions options;
  options.arrival_window = 0;  // all users start at t = 0 exactly
  SessionSimulator simulator(&catalog, options);
  Rng rng(3);
  TenantLog log = simulator.Run(2, 200, QuerySuite::kTpch, 3, &rng);
  ASSERT_FALSE(log.entries.empty());
  EXPECT_EQ(log.entries.front().submit_time, 0);
}

TEST(EdgeCaseTest, ReplaySkipsEntriesBeforeNow) {
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

  // Advance the clock past the first two entries; only the third replays.
  engine.RunUntil(kHour);
  TenantLog log;
  log.tenant_id = 0;
  log.entries.push_back({10 * kMinute, 0, kSecond, -1});
  log.entries.push_back({20 * kMinute, 0, kSecond, -1});
  log.entries.push_back({90 * kMinute, 0, kSecond, -1});
  ASSERT_TRUE(service.ScheduleLogReplay({log}).ok());
  engine.Run();
  EXPECT_EQ(service.metrics().completed, 1u);
}

TEST(EdgeCaseTest, RouterWithSingleMppdbAlwaysUsesIt) {
  SimEngine engine;
  MppdbInstance only(0, 2, &engine);
  only.AddTenant(0, 100);
  only.AddTenant(1, 100);
  GroupRouter router(0, {&only});
  QueryTemplate tmpl;
  tmpl.id = 0;
  tmpl.work_seconds_per_gb = 1.0;
  for (QueryId q = 0; q < 3; ++q) {
    auto decision = router.Route(static_cast<TenantId>(q % 2));
    ASSERT_TRUE(decision.ok());
    EXPECT_EQ(decision->instance->id(), 0);
    QuerySubmission s;
    s.query_id = q;
    s.tenant_id = static_cast<TenantId>(q % 2);
    ASSERT_TRUE(only.Submit(s, tmpl).ok());
  }
  // First was tuning-free, the rest affinity/overflow on the same box.
  engine.Run();
}

TEST(EdgeCaseTest, HistogramSingleValuePercentiles) {
  Histogram h;
  h.Add(5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.0), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.Percentile(1.0), 5.0);
}

TEST(EdgeCaseTest, ZeroCapacityClusterRejectsEverything) {
  SimEngine engine;
  Cluster cluster(0, &engine);
  EXPECT_EQ(cluster.CreateInstanceOnline(1).status().code(),
            StatusCode::kCapacityExceeded);
  EXPECT_EQ(cluster.nodes_hibernated(), 0);
}

}  // namespace
}  // namespace thrifty
