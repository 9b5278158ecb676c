#include "core/reconsolidation.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace thrifty {
namespace {

class ReconsolidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Two deployed groups of 2-node tenants plus staggered histories.
    plan_.replication_factor = 2;
    plan_.sla_fraction = 0.99;
    for (GroupId g = 0; g < 2; ++g) {
      GroupDeployment group;
      group.group_id = g;
      for (int i = 0; i < 3; ++i) {
        TenantSpec spec;
        spec.id = g * 3 + i;
        spec.requested_nodes = 2;
        spec.data_gb = 200;
        group.tenants.push_back(spec);
        TenantLog log;
        log.tenant_id = spec.id;
        log.entries.push_back(
            {spec.id * 2 * kHour, 0, 30 * kMinute, -1});
        history_.push_back(log);
      }
      group.cluster.mppdb_nodes = {2, 2};
      plan_.groups.push_back(group);
    }
    options_.replication_factor = 2;
    options_.sla_fraction = 0.99;
    options_.epoch_size = 5 * kMinute;
  }

  /// Planner options with absorbers pinned off, for tests that assert the
  /// exact trigger partition (absorbers deliberately widen it).
  ReconsolidationOptions NoAbsorbers() const {
    ReconsolidationOptions opts;
    opts.advisor = options_;
    opts.absorbers_per_class = 0;
    return opts;
  }

  /// The planner's activity input: `logs` over the fixture's one-day
  /// window at the advisor's epoch size.
  ActivityIndex Index(const std::vector<TenantLog>& logs) const {
    return MakeActivityIndex(logs, {options_.epoch_size, 0, kDay});
  }

  DeploymentPlan plan_;
  std::vector<TenantLog> history_;
  AdvisorOptions options_;
};

TEST_F(ReconsolidationTest, NothingAffectedKeepsEverything) {
  ReconsolidationPlanner planner(options_);
  ReconsolidationInput input;
  input.current_plan = plan_;
  auto output = planner.Plan(input, Index({}));
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->plan.groups.size(), 2u);
  EXPECT_TRUE(output->regrouped_tenants.empty());
  EXPECT_EQ(output->untouched_groups.size(), 2u);
}

TEST_F(ReconsolidationTest, ScaledGroupIsRegrouped) {
  ReconsolidationPlanner planner(NoAbsorbers());
  ReconsolidationInput input;
  input.current_plan = plan_;
  input.scaled_groups = {0};
  auto output = planner.Plan(input, Index(history_));
  ASSERT_TRUE(output.ok()) << output.status();
  // Group 1 untouched; group 0's three tenants regrouped.
  EXPECT_EQ(output->untouched_groups, (std::vector<GroupId>{1}));
  EXPECT_EQ(output->regrouped_tenants.size(), 3u);
  // All six tenants still placed.
  size_t placed = 0;
  for (const auto& group : output->plan.groups) placed += group.tenants.size();
  EXPECT_EQ(placed, 6u);
}

TEST_F(ReconsolidationTest, DeregistrationShrinksItsGroup) {
  ReconsolidationPlanner planner(NoAbsorbers());
  ReconsolidationInput input;
  input.current_plan = plan_;
  input.deregistered = {4};  // member of group 1
  auto output = planner.Plan(input, Index(history_));
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->untouched_groups, (std::vector<GroupId>{0}));
  size_t placed = 0;
  for (const auto& group : output->plan.groups) {
    for (const auto& t : group.tenants) {
      EXPECT_NE(t.id, 4);
      ++placed;
    }
  }
  EXPECT_EQ(placed, 5u);
}

TEST_F(ReconsolidationTest, NewTenantsJoinTheCycle) {
  ReconsolidationPlanner planner(NoAbsorbers());
  ReconsolidationInput input;
  input.current_plan = plan_;
  TenantSpec fresh;
  fresh.id = 100;
  fresh.requested_nodes = 2;
  fresh.data_gb = 200;
  input.new_tenants = {fresh};
  TenantLog fresh_log;
  fresh_log.tenant_id = 100;
  fresh_log.entries.push_back({20 * kHour, 0, 30 * kMinute, -1});
  std::vector<TenantLog> history = history_;
  history.push_back(fresh_log);
  auto output = planner.Plan(input, Index(history));
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->untouched_groups.size(), 2u);
  bool found = false;
  for (const auto& group : output->plan.groups) {
    for (const auto& t : group.tenants) found |= (t.id == 100);
  }
  EXPECT_TRUE(found);
}

TEST_F(ReconsolidationTest, AlwaysActiveRegroupedTenantGetsDedicatedGroup) {
  ReconsolidationPlanner planner(options_);
  ReconsolidationInput input;
  input.current_plan = plan_;
  input.scaled_groups = {0};
  // Tenant 1's recent history is around-the-clock activity.
  std::vector<TenantLog> history = history_;
  history[1].entries.clear();
  history[1].entries.push_back({0, 0, kDay, -1});
  auto output = planner.Plan(input, Index(history));
  ASSERT_TRUE(output.ok()) << output.status();
  bool dedicated_found = false;
  for (const auto& group : output->plan.groups) {
    if (group.tenants.size() == 1 && group.tenants[0].id == 1) {
      dedicated_found = true;
    }
    for (const auto& t : group.tenants) {
      if (t.id == 1) EXPECT_EQ(group.tenants.size(), 1u);
    }
  }
  EXPECT_TRUE(dedicated_found);
}

TEST_F(ReconsolidationTest, HighestIdGroupDissolveNeverReusesItsId) {
  // Dissolve the *highest-id* group: untouched groups keep their ids and
  // fresh groups are numbered densely starting one past the input plan's
  // maximum id — the dissolved id must never be handed out again this
  // cycle.
  ReconsolidationPlanner planner(NoAbsorbers());
  ReconsolidationInput input;
  input.current_plan = plan_;
  input.scaled_groups = {1};
  auto output = planner.Plan(input, Index(history_));
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->untouched_groups, (std::vector<GroupId>{0}));
  EXPECT_EQ(output->resolved_groups, (std::vector<GroupId>{1}));
  std::vector<GroupId> fresh;
  for (const auto& group : output->plan.groups) {
    if (group.group_id == 0) continue;
    EXPECT_NE(group.group_id, 1);
    fresh.push_back(group.group_id);
  }
  ASSERT_FALSE(fresh.empty());
  std::sort(fresh.begin(), fresh.end());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(fresh[i], static_cast<GroupId>(2 + i));
  }
}

TEST_F(ReconsolidationTest, ActivityDriftTriggersResolveOnlyPastThreshold) {
  // Record each member's plan-time activity ratio as its drift baseline.
  DeploymentPlan plan = plan_;
  for (auto& group : plan.groups) {
    for (const auto& tenant : group.tenants) {
      group.member_activity_baseline.push_back(
          history_[static_cast<size_t>(tenant.id)].ActiveRatio(0, kDay));
    }
  }
  // Tenant 1 (group 0) now runs 4 hours instead of 30 minutes: its ratio
  // moves by ~0.15, far past the 0.05 threshold; everyone else is exactly
  // on baseline.
  std::vector<TenantLog> history = history_;
  history[1].entries.clear();
  history[1].entries.push_back({2 * kHour, 0, 4 * kHour, -1});

  ReconsolidationOptions opts = NoAbsorbers();
  opts.activity_delta_threshold = 0.05;
  ReconsolidationInput input;
  input.current_plan = plan;
  {
    ReconsolidationPlanner planner(opts);
    auto output = planner.Plan(input, Index(history));
    ASSERT_TRUE(output.ok()) << output.status();
    EXPECT_EQ(output->untouched_groups, (std::vector<GroupId>{1}));
    EXPECT_EQ(output->resolved_groups, (std::vector<GroupId>{0}));
    EXPECT_EQ(output->drifted_groups, 1u);
  }
  // Negative threshold disables screening: the same drift goes unseen.
  opts.activity_delta_threshold = -1.0;
  {
    ReconsolidationPlanner planner(opts);
    auto output = planner.Plan(input, Index(history));
    ASSERT_TRUE(output.ok()) << output.status();
    EXPECT_EQ(output->untouched_groups.size(), 2u);
    EXPECT_EQ(output->drifted_groups, 0u);
  }
}

TEST_F(ReconsolidationTest, UnaffectedTailGroupIsOpenedAsAbsorber) {
  // With absorbers on, a re-solve of group 0 also opens group 1 — the
  // least-populated unaffected group of the same size class — so affected
  // tenants can merge into its spare capacity.
  ReconsolidationOptions opts;
  opts.advisor = options_;
  opts.absorbers_per_class = 1;
  ReconsolidationPlanner planner(opts);
  ReconsolidationInput input;
  input.current_plan = plan_;
  input.scaled_groups = {0};
  auto output = planner.Plan(input, Index(history_));
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_TRUE(output->untouched_groups.empty());
  EXPECT_EQ(output->resolved_groups, (std::vector<GroupId>{0, 1}));
  EXPECT_EQ(output->absorber_groups, 1u);
  EXPECT_EQ(output->regrouped_tenants.size(), 6u);
  size_t placed = 0;
  for (const auto& group : output->plan.groups) placed += group.tenants.size();
  EXPECT_EQ(placed, 6u);
}

TEST_F(ReconsolidationTest, ConflictingRegistrationRejected) {
  ReconsolidationPlanner planner(options_);
  ReconsolidationInput input;
  input.current_plan = plan_;
  TenantSpec fresh;
  fresh.id = 100;
  fresh.requested_nodes = 2;
  input.new_tenants = {fresh};
  input.deregistered = {100};
  EXPECT_EQ(planner.Plan(input, Index(history_)).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace thrifty
