// Streaming-service soak: bounded smoke soak under ctest (set
// THRIFTY_SOAK_LONG=1 for the long mode), exercising the full loop —
// workload generation, event stream, controller feedback, delta
// re-consolidation, cluster deployment — and gating on final-plan
// feasibility, monotone event-log offsets, live-vs-replay fingerprint
// identity, and the churn soak's delta-vs-cold comparison. Per-cycle
// exactly-once coverage is the harness's own invariant: RunSoak and
// ReplaySoak fail when any cycle breaks it.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "activity/streamed_epochizer.h"
#include "gtest/gtest.h"
#include "placement/problem.h"
#include "soak/soak_harness.h"

namespace thrifty {
namespace {

soak::SoakConfig SmokeConfig() {
  soak::SoakConfig config;
  if (std::getenv("THRIFTY_SOAK_LONG") != nullptr) {
    config.initial_tenants = 400;
    config.cycles = 10;
    config.churn_per_cycle = 8;
    config.drift_per_cycle = 5;
    config.horizon_days = 7;
    config.sessions_per_class = 25;
  }
  return config;
}

/// Rebuilds the packing problem from the soak's final registered state and
/// verifies the final plan against it under the smallest P any cycle
/// solved with. Sound across cycles: every carried-over group was solved
/// under some cycle's P >= min, and activity drift only thins logs, so a
/// group's recomputed TTP can only have improved.
Status VerifyFinalPlan(const soak::SoakOutcome& outcome,
                       const soak::SoakConfig& config) {
  EpochConfig epochs{10 * kSecond, 0,
                     static_cast<SimTime>(config.horizon_days) * kDay};
  std::vector<ActivityVector> vectors;
  vectors.reserve(outcome.final_history.size());
  for (const TenantLog& log : outcome.final_history) {
    vectors.push_back(
        EpochizeIntervals(log.tenant_id, log.ActivityIntervals(), epochs));
  }
  THRIFTY_ASSIGN_OR_RETURN(
      PackingProblem problem,
      MakePackingProblem(outcome.final_specs, vectors,
                         config.replication_factor,
                         outcome.min_sla_fraction));
  GroupingSolution solution;
  const DeploymentPlan& plan = outcome.plans.back();
  for (const GroupDeployment& group : plan.groups) {
    TenantGroupResult result;
    for (const TenantSpec& tenant : group.tenants) {
      result.tenant_ids.push_back(tenant.id);
    }
    result.max_nodes = group.LargestTenantNodes();
    solution.groups.push_back(std::move(result));
  }
  return VerifySolution(problem, solution);
}

TEST(StreamingSoakTest, SoakIsFeasibleDeterministicAndReplayable) {
  soak::SoakConfig config = SmokeConfig();
  auto live = soak::RunSoak(config);
  ASSERT_TRUE(live.ok()) << live.status();
  ASSERT_EQ(live->decisions.size(), static_cast<size_t>(config.cycles));
  ASSERT_EQ(live->plans.size(), static_cast<size_t>(config.cycles));

  // Monotone event-log offsets: sequences dense from zero, times
  // non-decreasing (DecodeEventLog enforces both; spelled out anyway so a
  // codec regression cannot silently weaken the gate).
  auto events = DecodeEventLog(live->encoded_log);
  ASSERT_TRUE(events.ok()) << events.status();
  for (size_t i = 0; i < events->size(); ++i) {
    ASSERT_EQ((*events)[i].sequence, i);
    if (i > 0) {
      ASSERT_GE((*events)[i].time, (*events)[i - 1].time);
    }
  }

  // The final plan is feasible under min-P.
  Status feasible = VerifyFinalPlan(*live, config);
  EXPECT_TRUE(feasible.ok()) << feasible;

  // Replay identity — same config, then a different solver parallelism;
  // neither may move a single fingerprint byte.
  Status replays =
      soak::CheckReplays(config, *live, {config.solver_jobs, 4});
  EXPECT_TRUE(replays.ok()) << replays;
}

TEST(StreamingSoakTest, ControllerStaysInConfiguredBand) {
  soak::SoakConfig config = SmokeConfig();
  auto outcome = soak::RunSoak(config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  ASSERT_EQ(outcome->controller_trajectory.size(),
            static_cast<size_t>(config.cycles));
  for (double p : outcome->controller_trajectory) {
    EXPECT_GE(p, config.controller.min_sla_fraction);
    EXPECT_LE(p, config.controller.max_sla_fraction);
  }
  // Once feedback flows (cycle 1 on), the observed violation rate must
  // stay within the steering band around the target — the loop is closed,
  // so a runaway P or a dead controller both show up here.
  for (size_t c = 1; c < outcome->observed_violation_rates.size(); ++c) {
    EXPECT_GT(outcome->observed_violation_rates[c], 0.0) << "cycle " << c;
    EXPECT_LE(outcome->observed_violation_rates[c],
              5.0 * config.controller.target_violation_rate)
        << "cycle " << c;
  }
}

TEST(StreamingSoakTest, NodeFailureRepairLeavesOthersUntouched) {
  soak::SoakConfig config = SmokeConfig();
  config.fail_group_at_cycle = 2;
  ASSERT_GE(config.cycles, 4);
  auto outcome = soak::RunSoak(config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  ASSERT_NE(outcome->failed_group, -1);

  const CycleDecision& repair = outcome->decisions[2];
  // The failed group was re-solved: its id is gone from the next plan
  // (delta re-solves assign fresh ids) and listed as resolved.
  EXPECT_TRUE(std::count(repair.resolved_groups.begin(),
                         repair.resolved_groups.end(),
                         outcome->failed_group) == 1 ||
              std::count(repair.dissolved_groups.begin(),
                         repair.dissolved_groups.end(),
                         outcome->failed_group) == 1)
      << "failed group " << outcome->failed_group
      << " was not re-consolidated";
  for (const GroupDeployment& group : outcome->plans[2].groups) {
    EXPECT_NE(group.group_id, outcome->failed_group);
  }

  // Members of the failed group are all re-placed...
  const DeploymentPlan& before = outcome->plans[1];
  const DeploymentPlan& after = outcome->plans[2];
  for (const GroupDeployment& group : before.groups) {
    if (group.group_id != outcome->failed_group) continue;
    for (const TenantSpec& tenant : group.tenants) {
      EXPECT_TRUE(after.GroupOf(tenant.id).ok())
          << "tenant " << tenant.id << " lost in the repair cycle";
    }
  }
  // ...while every untouched group's membership fingerprint is
  // byte-identical across the repair cycle.
  std::unordered_set<GroupId> untouched(repair.untouched_groups.begin(),
                                        repair.untouched_groups.end());
  size_t compared = 0;
  for (const GroupDeployment& group : before.groups) {
    if (!untouched.count(group.group_id)) continue;
    for (const GroupDeployment& now : after.groups) {
      if (now.group_id != group.group_id) continue;
      EXPECT_EQ(GroupFingerprint(now), GroupFingerprint(group))
          << "untouched group " << group.group_id
          << " changed during failure repair";
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u) << "no untouched groups to compare";

  // Fault events replay like any others.
  Status replays = soak::CheckReplays(config, *outcome, {config.solver_jobs});
  EXPECT_TRUE(replays.ok()) << replays;
}

TEST(StreamingSoakTest, ChurnSmokeDeltaTracksColdBaseline) {
  soak::SoakConfig config = soak::ChurnSoakConfig(/*smoke=*/true);
  auto outcome = soak::RunSoak(config);
  ASSERT_TRUE(outcome.ok()) << outcome.status();

  // One cold baseline, with both wall times, per churn cycle.
  ASSERT_EQ(outcome->cold_baselines.size(),
            static_cast<size_t>(config.cycles - 1));
  for (size_t i = 0; i < outcome->cold_baselines.size(); ++i) {
    const soak::ColdBaseline& baseline = outcome->cold_baselines[i];
    const DeploymentPlan& delta = outcome->plans[i + 1];
    EXPECT_EQ(outcome->decisions[i + 1].sla_fraction,
              config.controller.initial_sla_fraction);
    EXPECT_GT(baseline.live_seconds, 0.0) << "cycle " << i + 1;
    EXPECT_GT(baseline.cold_seconds, 0.0) << "cycle " << i + 1;
    EXPECT_GT(baseline.cold_effectiveness, 0.0) << "cycle " << i + 1;
    EXPECT_NEAR(delta.ConsolidationEffectiveness(),
                baseline.cold_effectiveness, 0.01)
        << "cycle " << i + 1;
  }

  Status replays = soak::CheckReplays(config, *outcome, {4});
  EXPECT_TRUE(replays.ok()) << replays;
}

}  // namespace
}  // namespace thrifty
