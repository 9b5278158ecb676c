#include "scaling/elastic_scaler.h"

#include <gtest/gtest.h>

#include "activity/activity_monitor.h"
#include "common/sim_time.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/instance.h"
#include "placement/deployment_plan.h"
#include "routing/query_router.h"
#include "scaling/rt_ttp_monitor.h"
#include "sim/engine.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

// Unit-level harness: one group of three 2-node tenants on one MPPDB
// (R = 1), with the tracker and RT-TTP monitor driven directly.
class ElasticScalerTest : public ::testing::Test {
 protected:
  ElasticScalerTest()
      : cluster_(8, &engine_),
        monitor_(/*r=*/1, /*window=*/4 * kHour) {
    instance_ = *cluster_.CreateInstanceOnline(2);
    for (TenantId t = 0; t < 3; ++t) {
      instance_->AddTenant(t, 200);
      tenants_.push_back(
          TenantSpec{t, 2, 200, QuerySuite::kTpch, 0, 1});
    }
    router_ = std::make_unique<GroupRouter>(
        0, std::vector<MppdbInstance*>{instance_});
  }

  // Marks `tenant` active on [begin, end) in both tracker and monitor.
  void AddActivity(TenantId tenant, SimTime begin, SimTime end,
                   int count_during) {
    tracker_.OnQueryStart(tenant, begin);
    monitor_.OnActiveCountChange(begin, count_during);
    ASSERT_TRUE(tracker_.OnQueryFinish(tenant, end).ok());
    monitor_.OnActiveCountChange(end, 0);
  }

  ElasticScaler MakeScaler(double p = 0.95) {
    ElasticScalerOptions options;
    options.window = 4 * kHour;
    options.epoch_size = 10 * kSecond;
    ElasticScaler scaler(&engine_, &cluster_, &tracker_, /*r=*/1, p,
                         options);
    return scaler;
  }

  SimEngine engine_;
  Cluster cluster_;
  TenantActivityTracker tracker_;
  RtTtpMonitor monitor_;
  MppdbInstance* instance_ = nullptr;
  std::unique_ptr<GroupRouter> router_;
  std::vector<TenantSpec> tenants_;
};

TEST_F(ElasticScalerTest, NoBreachNoAction) {
  ElasticScaler scaler = MakeScaler();
  scaler.AddGroup(0, tenants_, router_.get(), &monitor_);
  AddActivity(0, 0, 10 * kMinute, 1);
  engine_.RunUntil(4 * kHour);
  scaler.CheckNow(engine_.now());
  EXPECT_TRUE(scaler.events().empty());
  EXPECT_TRUE(scaler.reconsolidation_list().empty());
}

TEST_F(ElasticScalerTest, BreachTriggersScalingAndExclusion) {
  ElasticScaler scaler = MakeScaler();
  scaler.AddGroup(0, tenants_, router_.get(), &monitor_);
  std::vector<TenantId> excluded;
  SimTime excluded_at = 0;
  scaler.set_exclusion_callback(
      [&](GroupId group, const std::vector<TenantId>& tenants, SimTime now) {
        EXPECT_EQ(group, 0);
        excluded = tenants;
        excluded_at = now;
      });

  // Tenant 2 hyperactive; tenants 0/1 sparse but overlapping tenant 2, so
  // the count exceeds R=1 for ~half the window.
  engine_.RunUntil(1 * kHour);
  tracker_.OnQueryStart(2, engine_.now());
  monitor_.OnActiveCountChange(engine_.now(), 1);
  engine_.RunUntil(2 * kHour);
  tracker_.OnQueryStart(0, engine_.now());
  monitor_.OnActiveCountChange(engine_.now(), 2);  // above R
  engine_.RunUntil(4 * kHour);
  ASSERT_TRUE(tracker_.OnQueryFinish(0, engine_.now()).ok());
  monitor_.OnActiveCountChange(engine_.now(), 1);
  ASSERT_TRUE(tracker_.OnQueryFinish(2, engine_.now()).ok());
  monitor_.OnActiveCountChange(engine_.now(), 0);

  EXPECT_LT(monitor_.RtTtp(engine_.now()), 0.95);
  scaler.CheckNow(engine_.now());
  ASSERT_EQ(scaler.events().size(), 1u);
  EXPECT_EQ(scaler.events()[0].group_id, 0);
  ASSERT_FALSE(scaler.events()[0].tenants.empty());
  // The hyperactive tenant is among the victims.
  EXPECT_TRUE(std::count(scaler.events()[0].tenants.begin(),
                         scaler.events()[0].tenants.end(), 2));

  // The new MPPDB comes online after start + load of victim data only.
  engine_.Run();
  EXPECT_FALSE(excluded.empty());
  EXPECT_GT(excluded_at, 4 * kHour);
  for (TenantId victim : scaler.events()[0].tenants) {
    EXPECT_TRUE(router_->HasDedicated(victim));
  }
  EXPECT_TRUE(scaler.reconsolidation_list().count(0));
  EXPECT_GT(cluster_.nodes_in_use(), 2);
}

TEST_F(ElasticScalerTest, OncePerGroupSuppressesRepeatScaling) {
  ElasticScaler scaler = MakeScaler();
  scaler.AddGroup(0, tenants_, router_.get(), &monitor_);
  engine_.RunUntil(1 * kHour);
  AddActivity(2, engine_.now(), engine_.now() + 3 * kHour, 2);
  engine_.RunUntil(4 * kHour + kMinute);
  scaler.CheckNow(engine_.now());
  ASSERT_EQ(scaler.events().size(), 1u);
  engine_.Run();  // provisioning completes
  // Still breached (window remembers), but a group scales only once.
  scaler.CheckNow(engine_.now());
  EXPECT_EQ(scaler.events().size(), 1u);
}

TEST_F(ElasticScalerTest, PoolExhaustionIsToleratedAndRetried) {
  // Use up the pool so the scaler cannot get nodes.
  ASSERT_TRUE(cluster_.CreateInstanceOnline(6).ok());
  ElasticScaler scaler = MakeScaler();
  scaler.AddGroup(0, tenants_, router_.get(), &monitor_);
  engine_.RunUntil(1 * kHour);
  AddActivity(2, engine_.now(), engine_.now() + 3 * kHour, 2);
  engine_.RunUntil(4 * kHour + kMinute);
  scaler.CheckNow(engine_.now());
  EXPECT_TRUE(scaler.events().empty());  // could not act, no event recorded
  // Free capacity and retry: now it works.
  ASSERT_TRUE(cluster_.DecommissionInstance(1).ok());
  scaler.CheckNow(engine_.now());
  EXPECT_EQ(scaler.events().size(), 1u);
}

}  // namespace
}  // namespace thrifty
