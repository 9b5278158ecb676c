#include "core/admin_report.h"

#include <sstream>

#include <gtest/gtest.h>

#include "common/status.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/query_model.h"
#include "placement/deployment_plan.h"
#include "scaling/manual_tuning.h"
#include "sim/engine.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

class AdminReportTest : public ::testing::Test {
 protected:
  AdminReportTest()
      : cluster_(20, &engine_), catalog_(QueryCatalog::Default()) {}

  DeploymentPlan MakePlan() {
    DeploymentPlan plan;
    plan.replication_factor = 2;
    plan.sla_fraction = 0.999;
    GroupDeployment group;
    group.group_id = 0;
    for (TenantId id = 0; id < 3; ++id) {
      TenantSpec spec;
      spec.id = id;
      spec.requested_nodes = 4;
      spec.data_gb = 400;
      group.tenants.push_back(spec);
    }
    group.cluster.mppdb_nodes = {6, 4};
    plan.groups.push_back(group);
    return plan;
  }

  SimEngine engine_;
  Cluster cluster_;
  QueryCatalog catalog_;
};

TEST_F(AdminReportTest, SnapshotsClusterGroupsAndMetrics) {
  ServiceOptions options;
  options.replication_factor = 2;
  options.elastic_scaling = false;
  ThriftyService service(&engine_, &cluster_, &catalog_, options);
  ASSERT_TRUE(service.Deploy(MakePlan()).ok());
  ASSERT_TRUE(service.SubmitQuery(0, *catalog_.FindByName("TPCH-Q1")).ok());

  auto report = BuildStatusReport(&service);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->nodes_total, 20);
  EXPECT_EQ(report->nodes_in_use, 10);
  ASSERT_EQ(report->groups.size(), 1u);
  const GroupStatus& group = report->groups[0];
  EXPECT_EQ(group.num_tenants, 3u);
  EXPECT_EQ(group.num_mppdbs, 2);
  EXPECT_EQ(group.tuning_nodes, 6);
  EXPECT_EQ(group.replica_nodes, 4);
  EXPECT_EQ(group.active_tenants, 1);  // query still running
  EXPECT_EQ(group.tuning_action, TuningAction::kNone);
  EXPECT_FALSE(group.scaled);

  engine_.Run();
  auto after = BuildStatusReport(&service);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->groups[0].active_tenants, 0);
  EXPECT_EQ(after->metrics.completed, 1u);
}

TEST_F(AdminReportTest, PrintedReportMentionsKeyFacts) {
  ServiceOptions options;
  options.replication_factor = 2;
  options.elastic_scaling = false;
  ThriftyService service(&engine_, &cluster_, &catalog_, options);
  ASSERT_TRUE(service.Deploy(MakePlan()).ok());
  auto report = BuildStatusReport(&service);
  ASSERT_TRUE(report.ok());
  std::ostringstream os;
  PrintStatusReport(*report, os);
  std::string text = os.str();
  EXPECT_NE(text.find("10 in use / 20 total"), std::string::npos);
  EXPECT_NE(text.find("6/4"), std::string::npos);
  EXPECT_NE(text.find("100.00%"), std::string::npos);
}

TEST_F(AdminReportTest, TemplateTrafficCounters) {
  ServiceOptions options;
  options.replication_factor = 2;
  options.elastic_scaling = false;
  ThriftyService service(&engine_, &cluster_, &catalog_, options);
  ASSERT_TRUE(service.Deploy(MakePlan()).ok());

  TemplateId q1 = *catalog_.FindByName("TPCH-Q1");
  TemplateId q19 = *catalog_.FindByName("TPCH-Q19");
  ASSERT_TRUE(service.SubmitQuery(0, q1).ok());
  ASSERT_TRUE(service.SubmitQuery(1, q1).ok());
  ASSERT_TRUE(service.SubmitQuery(2, q19).ok());

  // Mid-flight: everything submitted, nothing completed.
  auto mid = BuildStatusReport(&service);
  ASSERT_TRUE(mid.ok());
  ASSERT_EQ(mid->template_usage.size(), 2u);
  EXPECT_EQ(mid->template_usage[0].template_id, std::min(q1, q19));
  EXPECT_EQ(mid->template_usage[1].template_id, std::max(q1, q19));
  for (const TemplateUsage& usage : mid->template_usage) {
    EXPECT_EQ(usage.submitted, usage.template_id == q1 ? 2 : 1);
    EXPECT_EQ(usage.completed, 0);
    EXPECT_EQ(usage.InFlight(), usage.submitted);
  }

  engine_.Run();
  auto after = BuildStatusReport(&service);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(after->template_usage.size(), 2u);
  for (const TemplateUsage& usage : after->template_usage) {
    EXPECT_EQ(usage.completed, usage.submitted);
    EXPECT_EQ(usage.InFlight(), 0);
  }

  std::ostringstream os;
  PrintStatusReport(*after, os);
  EXPECT_NE(os.str().find("Template traffic:"), std::string::npos);
}

TEST_F(AdminReportTest, NullServiceRejected) {
  EXPECT_EQ(BuildStatusReport(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace thrifty
