#include "core/service.h"

#include <gtest/gtest.h>

#include "common/sim_time.h"
#include "common/status.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "placement/deployment_plan.h"
#include "sim/engine.h"
#include "workload/query_log.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest()
      : cluster_(32, &engine_), catalog_(QueryCatalog::Default()) {}

  DeploymentPlan TwoGroupPlan() {
    DeploymentPlan plan;
    plan.replication_factor = 2;
    plan.sla_fraction = 0.999;
    for (GroupId g = 0; g < 2; ++g) {
      GroupDeployment group;
      group.group_id = g;
      for (int i = 0; i < 3; ++i) {
        TenantSpec spec;
        spec.id = g * 3 + i;
        spec.requested_nodes = 4;
        spec.data_gb = 400;
        group.tenants.push_back(spec);
      }
      group.cluster.mppdb_nodes = {4, 4};
      plan.groups.push_back(group);
    }
    return plan;
  }

  ThriftyService MakeService(bool scaling = false) {
    ServiceOptions options;
    options.replication_factor = 2;
    options.elastic_scaling = scaling;
    return ThriftyService(&engine_, &cluster_, &catalog_, options);
  }

  SimEngine engine_;
  Cluster cluster_;
  QueryCatalog catalog_;
};

TEST_F(ServiceTest, DeployStartsInstancesAndRegistersTenants) {
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  EXPECT_EQ(cluster_.nodes_in_use(), 16);  // 2 groups x 2 MPPDBs x 4 nodes
  EXPECT_EQ(cluster_.LiveInstances().size(), 4u);
  auto info = service.TenantInfo(4);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->requested_nodes, 4);
  EXPECT_FALSE(service.TenantInfo(42).ok());
}

TEST_F(ServiceTest, DoubleDeployFails) {
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  EXPECT_EQ(service.Deploy(TwoGroupPlan()).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServiceTest, ReplicationMismatchRejected) {
  ServiceOptions options;
  options.replication_factor = 3;  // plan says 2
  ThriftyService service(&engine_, &cluster_, &catalog_, options);
  EXPECT_EQ(service.Deploy(TwoGroupPlan()).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, SubmitBeforeDeployFails) {
  ThriftyService service = MakeService();
  EXPECT_EQ(service.SubmitQuery(0, 0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(ServiceTest, SingleQueryMeetsSlaExactly) {
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  std::vector<QueryOutcome> outcomes;
  service.set_completion_hook(
      [&](const QueryOutcome& o) { outcomes.push_back(o); });
  auto result = service.SubmitQuery(0, *catalog_.FindByName("TPCH-Q1"));
  ASSERT_TRUE(result.ok());
  engine_.Run();
  ASSERT_EQ(outcomes.size(), 1u);
  // Group instance size == requested size and the tenant ran alone:
  // exactly isolated speed.
  EXPECT_NEAR(outcomes[0].NormalizedPerformance(), 1.0, 1e-6);
  EXPECT_EQ(service.metrics().completed, 1u);
  EXPECT_EQ(service.metrics().sla_met, 1u);
}

TEST_F(ServiceTest, BatchOfOwnQueriesStillMeetsSla) {
  // A tenant's own MPL > 1 slows its queries on the shared instance AND on
  // the isolated counterfactual equally: normalized stays 1.0 (§4.4: load
  // within a tenant is the tenant's own issue).
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  TemplateId q1 = *catalog_.FindByName("TPCH-Q1");
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.SubmitQuery(0, q1).ok());
  }
  engine_.Run();
  EXPECT_EQ(service.metrics().completed, 4u);
  EXPECT_EQ(service.metrics().sla_met, 4u);
}

TEST_F(ServiceTest, UnknownTenantRejected) {
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  EXPECT_EQ(service.SubmitQuery(77, 0).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServiceTest, ReplayDrivesQueriesAtLoggedTimes) {
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  TenantLog log;
  log.tenant_id = 1;
  for (int i = 0; i < 5; ++i) {
    QueryLogEntry entry;
    entry.submit_time = (i + 1) * 10 * kMinute;
    entry.template_id = *catalog_.FindByName("TPCH-Q6");
    log.entries.push_back(entry);
  }
  ASSERT_TRUE(service.ScheduleLogReplay({log}).ok());
  engine_.Run();
  EXPECT_EQ(service.metrics().completed, 5u);
  EXPECT_EQ(service.metrics().SlaAttainment(), 1.0);
}

TEST_F(ServiceTest, ReplayUnknownTenantRejected) {
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  TenantLog log;
  log.tenant_id = 99;
  EXPECT_EQ(service.ScheduleLogReplay({log}).code(), StatusCode::kNotFound);
}

TEST_F(ServiceTest, ReplayCountsFailedSubmitsAndContinues) {
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  // Every MPPDB of group 0 goes offline, so routing its tenants fails.
  auto group0_router = service.router()->RouterForGroup(0);
  ASSERT_TRUE(group0_router.ok());
  for (MppdbInstance* m : (*group0_router)->mppdbs()) {
    m->SetState(InstanceState::kStopped);
  }
  const TemplateId q6 = *catalog_.FindByName("TPCH-Q6");
  std::vector<TenantLog> logs;
  for (TenantId tenant : {1, 4}) {  // group 0, group 1
    TenantLog log;
    log.tenant_id = tenant;
    for (int i = 0; i < 3; ++i) {
      QueryLogEntry entry;
      entry.submit_time = (i + 1) * 10 * kMinute;
      entry.template_id = q6;
      log.entries.push_back(entry);
    }
    logs.push_back(std::move(log));
  }
  ASSERT_TRUE(service.ScheduleLogReplay(std::move(logs)).ok());
  engine_.Run();
  EXPECT_EQ(service.metrics().failed_submits, 3u);
  EXPECT_EQ(service.metrics().completed, 3u);
}

TEST_F(ServiceTest, ActivityMonitorSeesTransitions) {
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  ASSERT_TRUE(service.SubmitQuery(0, *catalog_.FindByName("TPCH-Q1")).ok());
  EXPECT_TRUE(service.activity_monitor()->tracker()->IsActive(0));
  auto active = service.activity_monitor()->ActiveTenantsInGroup(0);
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(*active, 1);
  engine_.Run();
  EXPECT_FALSE(service.activity_monitor()->tracker()->IsActive(0));
  active = service.activity_monitor()->ActiveTenantsInGroup(0);
  ASSERT_TRUE(active.ok());
  EXPECT_EQ(*active, 0);
}

TEST_F(ServiceTest, GroupsAreIsolatedFromEachOther) {
  // Filling group 0 (A = 2 MPPDBs, 2 active tenants) never touches
  // group 1's MPPDBs.
  ThriftyService service = MakeService();
  ASSERT_TRUE(service.Deploy(TwoGroupPlan()).ok());
  TemplateId q1 = *catalog_.FindByName("TPCH-Q1");
  for (TenantId t = 0; t < 2; ++t) {
    ASSERT_TRUE(service.SubmitQuery(t, q1).ok());
  }
  auto group1_router = service.router()->RouterForGroup(1);
  ASSERT_TRUE(group1_router.ok());
  for (MppdbInstance* m : (*group1_router)->mppdbs()) {
    EXPECT_TRUE(m->IsFree());
  }
  auto result = service.SubmitQuery(3, q1);  // group 1 tenant
  ASSERT_TRUE(result.ok());
  engine_.Run();
  EXPECT_EQ(service.metrics().SlaAttainment(), 1.0);
}

}  // namespace
}  // namespace thrifty
