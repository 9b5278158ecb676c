#include "core/deployment_advisor.h"

#include <gtest/gtest.h>

namespace thrifty {
namespace {

// Hand-built history: tenants with one activity burst per "day", staggered
// so tenants with different phases pack well.
class AdvisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const int sizes[] = {2, 2, 2, 2, 4, 4};
    for (int i = 0; i < 6; ++i) {
      TenantSpec spec;
      spec.id = i;
      spec.requested_nodes = sizes[i];
      spec.data_gb = 100.0 * sizes[i];
      tenants_.push_back(spec);

      TenantLog log;
      log.tenant_id = i;
      // Two days; burst phase depends on tenant id so same-size tenants
      // overlap pairwise but not all at once.
      for (int day = 0; day < 2; ++day) {
        QueryLogEntry entry;
        entry.submit_time = day * kDay + (i % 3) * 4 * kHour;
        entry.template_id = 0;
        entry.observed_latency = 1 * kHour;
        log.entries.push_back(entry);
      }
      logs_.push_back(log);
    }
  }

  std::vector<TenantSpec> tenants_;
  std::vector<TenantLog> logs_;
};

TEST_F(AdvisorTest, ProducesAValidPlan) {
  AdvisorOptions options;
  options.replication_factor = 2;
  options.sla_fraction = 0.99;
  options.epoch_size = 10 * kMinute;
  DeploymentAdvisor advisor(options);
  auto output = advisor.Advise(tenants_, logs_, 0, 2 * kDay);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_TRUE(output->excluded_tenants.empty());
  EXPECT_EQ(output->plan.replication_factor, 2);
  // Every tenant appears in exactly one group.
  size_t placed = 0;
  for (const auto& group : output->plan.groups) placed += group.tenants.size();
  EXPECT_EQ(placed, tenants_.size());
  // Groups are size-homogeneous (two-step step 1).
  for (const auto& group : output->plan.groups) {
    for (const auto& t : group.tenants) {
      EXPECT_EQ(t.requested_nodes, group.LargestTenantNodes());
    }
    EXPECT_EQ(group.cluster.NumMppdbs(), 2);
    EXPECT_GE(group.ttp, 0.99);
  }
  EXPECT_GT(output->plan.ConsolidationEffectiveness(), 0.0);
}

TEST_F(AdvisorTest, AlwaysActiveTenantExcluded) {
  // Tenant 0 becomes active around the clock.
  logs_[0].entries.clear();
  QueryLogEntry entry;
  entry.submit_time = 0;
  entry.template_id = 0;
  entry.observed_latency = 2 * kDay;
  logs_[0].entries.push_back(entry);

  AdvisorOptions options;
  options.replication_factor = 2;
  options.sla_fraction = 0.99;
  options.epoch_size = 10 * kMinute;
  options.always_active_threshold = 0.5;
  DeploymentAdvisor advisor(options);
  auto output = advisor.Advise(tenants_, logs_, 0, 2 * kDay);
  ASSERT_TRUE(output.ok());
  ASSERT_EQ(output->excluded_tenants.size(), 1u);
  EXPECT_EQ(output->excluded_tenants[0].id, 0);
  EXPECT_EQ(output->ExcludedNodes(), 2);
  // The excluded tenant is not in the plan.
  EXPECT_EQ(output->plan.GroupOf(0).status().code(), StatusCode::kNotFound);
}

TEST_F(AdvisorTest, FfdSolverSelectable) {
  AdvisorOptions options;
  options.replication_factor = 2;
  options.sla_fraction = 0.99;
  options.epoch_size = 10 * kMinute;
  options.solver = GroupingSolver::kFfd;
  DeploymentAdvisor advisor(options);
  auto output = advisor.Advise(tenants_, logs_, 0, 2 * kDay);
  ASSERT_TRUE(output.ok());
  size_t placed = 0;
  for (const auto& group : output->plan.groups) placed += group.tenants.size();
  EXPECT_EQ(placed, tenants_.size());
}

TEST_F(AdvisorTest, MissingHistoryFails) {
  logs_.pop_back();
  DeploymentAdvisor advisor;
  auto output = advisor.Advise(tenants_, logs_, 0, 2 * kDay);
  EXPECT_EQ(output.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(AdvisorTest, EmptyWindowFails) {
  DeploymentAdvisor advisor;
  EXPECT_EQ(advisor.Advise(tenants_, logs_, kDay, kDay).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AdvisorTest, LogAdapterMatchesActivityIndex) {
  // Tenant 0 is always active, so the excluded path is compared too.
  logs_[0].entries = {{0, 0, 2 * kDay, -1}};
  AdvisorOptions options;
  options.replication_factor = 2;
  options.sla_fraction = 0.99;
  options.epoch_size = 10 * kMinute;
  DeploymentAdvisor advisor(options);
  auto from_logs = advisor.Advise(tenants_, logs_, 0, 2 * kDay);
  // The index holds the logs in reverse order: lookups only, no order.
  std::vector<TenantLog> reversed(logs_.rbegin(), logs_.rend());
  auto from_index = advisor.Advise(
      tenants_, MakeActivityIndex(reversed, {10 * kMinute, 0, 2 * kDay}));
  ASSERT_TRUE(from_logs.ok()) << from_logs.status();
  ASSERT_TRUE(from_index.ok()) << from_index.status();
  EXPECT_EQ(PlanFingerprint(from_index->plan),
            PlanFingerprint(from_logs->plan));
  ASSERT_EQ(from_index->excluded_tenants.size(), 1u);
  EXPECT_EQ(from_logs->excluded_tenants.size(), 1u);
  EXPECT_EQ(from_index->excluded_active_ratios,
            from_logs->excluded_active_ratios);
  EXPECT_EQ(from_index->excluded_active_ratios[0],
            logs_[0].ActiveRatio(0, 2 * kDay));
  ASSERT_EQ(from_index->plan.groups.size(), from_logs->plan.groups.size());
  for (size_t g = 0; g < from_index->plan.groups.size(); ++g) {
    const GroupDeployment& group = from_index->plan.groups[g];
    EXPECT_EQ(group.member_activity_baseline,
              from_logs->plan.groups[g].member_activity_baseline);
    ASSERT_EQ(group.member_activity_baseline.size(), group.tenants.size());
    for (size_t m = 0; m < group.tenants.size(); ++m) {
      EXPECT_EQ(group.member_activity_baseline[m],
                logs_[static_cast<size_t>(group.tenants[m].id)].ActiveRatio(
                    0, 2 * kDay));
    }
  }
}

TEST_F(AdvisorTest, EpochGridMismatchFails) {
  AdvisorOptions options;
  options.epoch_size = 10 * kMinute;
  DeploymentAdvisor advisor(options);
  Result<AdvisorOutput> coarser = advisor.Advise(
      tenants_, MakeActivityIndex(logs_, {20 * kMinute, 0, 2 * kDay}));
  EXPECT_EQ(coarser.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(coarser.status().message().find("epoch size"), std::string::npos);
  EXPECT_EQ(advisor.Advise(tenants_, MakeActivityIndex(logs_, {0, 0, kDay}))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(AdvisorTest, TenantActivityRatioIsBitEqualToLogRatio) {
  // Off-grid windows included: the ratio is measured on the intervals,
  // not on the epochs.
  const EpochConfig windows[] = {{10 * kMinute, 0, 2 * kDay},
                                 {7 * kMinute, kHour + 13, kDay + 17},
                                 {kHour, 5 * kHour, 6 * kHour}};
  for (const EpochConfig& grid : windows) {
    for (const TenantLog& log : logs_) {
      EXPECT_EQ(MakeTenantActivity(log, grid).active_ratio,
                log.ActiveRatio(grid.begin, grid.end))
          << "tenant " << log.tenant_id;
    }
  }
}

TEST_F(AdvisorTest, AllTenantsExcludedYieldsEmptyPlan) {
  for (auto& log : logs_) {
    log.entries.clear();
    QueryLogEntry entry;
    entry.submit_time = 0;
    entry.template_id = 0;
    entry.observed_latency = 2 * kDay;
    log.entries.push_back(entry);
  }
  AdvisorOptions options;
  options.always_active_threshold = 0.5;
  DeploymentAdvisor advisor(options);
  auto output = advisor.Advise(tenants_, logs_, 0, 2 * kDay);
  ASSERT_TRUE(output.ok());
  EXPECT_EQ(output->excluded_tenants.size(), 6u);
  EXPECT_TRUE(output->plan.groups.empty());
}

TEST_F(AdvisorTest, ImminentRegularBurstTenantExcluded) {
  // Tenant 0 bursts every day at the same hour across a 4-day history; the
  // next burst lands right after deployment, so burst screening excludes
  // it. Tenant 1 has the same volume in one irregular block and stays.
  logs_[0].entries.clear();
  logs_[1].entries.clear();
  for (int day = 0; day < 4; ++day) {
    logs_[0].entries.push_back(
        {day * kDay + 10 * kHour, 0, 4 * kHour, -1});
  }
  logs_[1].entries.push_back({2 * kDay, 0, 16 * kHour, -1});

  AdvisorOptions options;
  options.replication_factor = 2;
  options.sla_fraction = 0.99;
  options.epoch_size = 10 * kMinute;
  options.burst_exclusion_horizon = kDay;
  options.burst_detector.period = kDay;
  options.burst_detector.bin_size = kHour;
  options.burst_detector.burst_factor = 2.0;
  options.burst_detector.min_burst_ratio = 0.4;
  DeploymentAdvisor advisor(options);
  auto output = advisor.Advise(tenants_, logs_, 0, 4 * kDay);
  ASSERT_TRUE(output.ok()) << output.status();
  ASSERT_EQ(output->excluded_tenants.size(), 1u);
  EXPECT_EQ(output->excluded_tenants[0].id, 0);
  EXPECT_TRUE(output->plan.GroupOf(1).ok());
}

TEST_F(AdvisorTest, BothSolversConsolidate) {
  // On tiny mixed-size instances FFD can even beat two-step by letting
  // small tenants free-ride in big bins; the paper's superiority claim is
  // about realistic populations (covered by the fig7_* benches and
  // ffd_test). Here both solvers must simply produce valid, consolidating
  // plans.
  AdvisorOptions options;
  options.replication_factor = 2;
  options.sla_fraction = 0.99;
  options.epoch_size = 10 * kMinute;
  DeploymentAdvisor two_step(options);
  options.solver = GroupingSolver::kFfd;
  DeploymentAdvisor ffd(options);
  auto a = two_step.Advise(tenants_, logs_, 0, 2 * kDay);
  auto b = ffd.Advise(tenants_, logs_, 0, 2 * kDay);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_GT(a->plan.ConsolidationEffectiveness(), 0.0);
  EXPECT_GT(b->plan.ConsolidationEffectiveness(), 0.0);
}

}  // namespace
}  // namespace thrifty
