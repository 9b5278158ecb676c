#include "core/deployment_master.h"

#include <gtest/gtest.h>

#include "common/status.h"
#include "mppdb/cluster.h"
#include "mppdb/instance.h"
#include "placement/deployment_plan.h"
#include "routing/query_router.h"
#include "sim/engine.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

DeploymentPlan SmallPlan() {
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
  group.cluster.mppdb_nodes = {6, 4};  // tuned MPPDB_0 with U = 6
  plan.groups.push_back(group);
  return plan;
}

TEST(DeploymentMasterTest, StartsInstancesPerClusterDesign) {
  SimEngine engine;
  Cluster cluster(10, &engine);
  QueryRouter router;
  DeploymentMaster master(&cluster, &router);
  auto deployed = master.Deploy(SmallPlan());
  ASSERT_TRUE(deployed.ok()) << deployed.status();
  ASSERT_EQ(deployed->size(), 1u);
  ASSERT_EQ((*deployed)[0].instances.size(), 2u);
  EXPECT_EQ((*deployed)[0].instances[0]->nodes(), 6);  // tuning MPPDB first
  EXPECT_EQ((*deployed)[0].instances[1]->nodes(), 4);
  EXPECT_EQ(cluster.nodes_in_use(), 10);
}

TEST(DeploymentMasterTest, PlacesEveryTenantOnEveryGroupMppdb) {
  SimEngine engine;
  Cluster cluster(10, &engine);
  QueryRouter router;
  DeploymentMaster master(&cluster, &router);
  auto deployed = master.Deploy(SmallPlan());
  ASSERT_TRUE(deployed.ok());
  for (MppdbInstance* instance : (*deployed)[0].instances) {
    for (TenantId id = 0; id < 3; ++id) {
      EXPECT_TRUE(instance->HostsTenant(id));
      EXPECT_DOUBLE_EQ(instance->TenantDataGb(id), 400);
    }
  }
}

TEST(DeploymentMasterTest, RegistersRouting) {
  SimEngine engine;
  Cluster cluster(10, &engine);
  QueryRouter router;
  DeploymentMaster master(&cluster, &router);
  ASSERT_TRUE(master.Deploy(SmallPlan()).ok());
  auto decision = router.Route(1);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->kind, RouteKind::kTuningFree);
  EXPECT_EQ(decision->instance->nodes(), 6);
}

TEST(DeploymentMasterTest, FailsWhenPoolTooSmall) {
  SimEngine engine;
  Cluster cluster(8, &engine);  // plan needs 10
  QueryRouter router;
  DeploymentMaster master(&cluster, &router);
  EXPECT_EQ(master.Deploy(SmallPlan()).status().code(),
            StatusCode::kCapacityExceeded);
}

}  // namespace
}  // namespace thrifty
