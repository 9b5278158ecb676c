// Randomized property harness for warm-start group repair: re-solving a
// problem from a seed grouping that the (tightened or reshaped) instance
// no longer admits must evict members rather than dissolve groups, keep
// every output group SLA-feasible, account kept/repaired groups exactly,
// and produce byte-identical groupings at solver_jobs 1, 2, and 4. Every
// randomized case derives its generator from an id-keyed Rng fork, so a
// failure names the case id and replays deterministically.

#include "placement/two_step.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace thrifty {
namespace {

struct Instance {
  std::vector<TenantSpec> tenants;
  std::vector<ActivityVector> activities;
};

/// A random multi-size-class instance keyed by `case_id`.
Instance MakeInstance(uint64_t case_id, size_t num_tenants) {
  Rng rng = Rng(0xbee5).Fork(case_id);
  Instance instance;
  const size_t num_epochs = 400;
  const int sizes[] = {2, 4};
  for (TenantId id = 0; id < static_cast<TenantId>(num_tenants); ++id) {
    DynamicBitmap bits(num_epochs);
    int runs = static_cast<int>(rng.NextInt(1, 4));
    for (int run = 0; run < runs; ++run) {
      size_t begin = rng.NextBounded(num_epochs);
      bits.SetRange(begin, begin + 15 + rng.NextBounded(60));
    }
    instance.activities.push_back(ActivityVector::FromBitmap(id, bits));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = sizes[rng.NextBounded(2)];
    spec.data_gb = 100.0 * spec.requested_nodes;
    instance.tenants.push_back(spec);
  }
  return instance;
}

/// Solves `problem` warm-started from `seed` at the given solver_jobs.
GroupingSolution SolveWarm(const PackingProblem& problem,
                           const GroupingSolution& seed, int solver_jobs) {
  TwoStepOptions options;
  options.warm_start = &seed;
  options.solver_jobs = solver_jobs;
  auto solution = SolveTwoStep(problem, options);
  EXPECT_TRUE(solution.ok());
  return *solution;
}

/// The membership lists of a solution, for byte-identity comparison.
std::vector<std::vector<TenantId>> Memberships(
    const GroupingSolution& solution) {
  std::vector<std::vector<TenantId>> groups;
  for (const auto& group : solution.groups) {
    groups.push_back(group.tenant_ids);
  }
  return groups;
}

TEST(WarmRepairPropertyTest, RepairedSolvesAreFeasibleAndDeterministic) {
  size_t total_repaired = 0;
  for (uint64_t case_id = 0; case_id < 8; ++case_id) {
    SCOPED_TRACE("case_id=" + std::to_string(case_id));
    Instance instance = MakeInstance(case_id, 28);

    // Cold-solve at a loose SLA, then warm-start the tighter re-solve
    // from that grouping: loose groups routinely break the tighter P, so
    // repair has real work to do.
    auto loose = MakePackingProblem(instance.tenants, instance.activities,
                                    3, 0.95);
    ASSERT_TRUE(loose.ok());
    auto seed = SolveTwoStep(*loose);
    ASSERT_TRUE(seed.ok());

    auto tight = MakePackingProblem(instance.tenants, instance.activities,
                                    3, 0.999);
    ASSERT_TRUE(tight.ok());
    GroupingSolution repaired = SolveWarm(*tight, *seed, 1);

    // Every output group meets the tightened SLA and covers every tenant.
    EXPECT_TRUE(VerifySolution(*tight, repaired).ok());

    // Repair accounting: every seed group is either kept or repaired
    // (never dissolved), and evictions happen only in repaired groups.
    EXPECT_EQ(repaired.warm_groups_kept + repaired.warm_groups_repaired,
              seed->groups.size());
    if (repaired.warm_groups_repaired > 0) {
      EXPECT_GT(repaired.warm_members_evicted, 0u);
    } else {
      EXPECT_EQ(repaired.warm_members_evicted, 0u);
    }

    // Byte-identical memberships at solver_jobs 2 and 4.
    EXPECT_EQ(Memberships(SolveWarm(*tight, *seed, 2)),
              Memberships(repaired));
    EXPECT_EQ(Memberships(SolveWarm(*tight, *seed, 4)),
              Memberships(repaired));
    total_repaired += repaired.warm_groups_repaired;
  }
  // The SLA tightening must give repair real work somewhere in the case
  // set, or this test silently degrades to a kept-groups-only check.
  EXPECT_GT(total_repaired, 0u);
}

TEST(WarmRepairTest, HotTenantIsEvictedOthersStayGrouped) {
  // Five quiet tenants active in one shared epoch window, plus one hot
  // tenant active everywhere. Seeded together at R=1 the group's TTP is
  // far below P; repair must evict members until feasible, and the hot
  // tenant — the largest marginal TTP contributor — must go first (and
  // suffice).
  const size_t num_epochs = 300;
  std::vector<TenantSpec> tenants;
  std::vector<ActivityVector> activities;
  for (TenantId id = 0; id < 6; ++id) {
    DynamicBitmap bits(num_epochs);
    if (id == 5) {
      bits.SetRange(0, num_epochs);  // the hot tenant
    } else {
      bits.SetRange(10 * static_cast<size_t>(id),
                    10 * static_cast<size_t>(id) + 5);
    }
    activities.push_back(ActivityVector::FromBitmap(id, bits));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = 4;
    spec.data_gb = 400;
    tenants.push_back(spec);
  }
  auto problem = MakePackingProblem(tenants, activities, 1, 0.95);
  ASSERT_TRUE(problem.ok());

  GroupingSolution seed;
  TenantGroupResult all;
  all.max_nodes = 4;
  for (TenantId id = 0; id < 6; ++id) all.tenant_ids.push_back(id);
  seed.groups.push_back(all);

  GroupingSolution solution = SolveWarm(*problem, seed, 1);
  EXPECT_TRUE(VerifySolution(*problem, solution).ok());
  EXPECT_EQ(solution.warm_groups_repaired, 1u);
  EXPECT_EQ(solution.warm_members_evicted, 1u);

  // The repaired group holds the five quiet tenants; the hot tenant ends
  // up alone in a fresh group.
  ASSERT_EQ(solution.groups.size(), 2u);
  EXPECT_EQ(solution.groups[0].tenant_ids.size(), 5u);
  for (TenantId id = 0; id < 5; ++id) {
    EXPECT_EQ(solution.groups[0].tenant_ids[static_cast<size_t>(id)], id);
  }
  ASSERT_EQ(solution.groups[1].tenant_ids.size(), 1u);
  EXPECT_EQ(solution.groups[1].tenant_ids[0], 5);
}

TEST(WarmRepairTest, MissingSeedMembersAreCountedNotRepaired) {
  // A seed that references tenants absent from the problem (de-registered
  // since the seed plan was made): the absent ids are filtered and counted
  // in warm_members_missing, and the surviving members still seed their
  // group.
  Instance instance = MakeInstance(77, 12);
  auto problem = MakePackingProblem(instance.tenants, instance.activities,
                                    3, 0.95);
  ASSERT_TRUE(problem.ok());
  auto cold = SolveTwoStep(*problem);
  ASSERT_TRUE(cold.ok());

  GroupingSolution stale = *cold;
  stale.groups[0].tenant_ids.push_back(900);  // never registered
  stale.groups[0].tenant_ids.push_back(901);

  GroupingSolution solution = SolveWarm(*problem, stale, 1);
  EXPECT_TRUE(VerifySolution(*problem, solution).ok());
  EXPECT_EQ(solution.warm_members_missing, 2u);
  EXPECT_EQ(solution.warm_groups_kept + solution.warm_groups_repaired,
            cold->groups.size());
}

TEST(WarmRepairTest, EmptyWarmStartShortCircuitsToCold) {
  // A warm start carrying zero seed groups must behave exactly like a
  // cold solve (the seed pass is skipped entirely).
  Instance instance = MakeInstance(3, 20);
  auto problem = MakePackingProblem(instance.tenants, instance.activities,
                                    3, 0.999);
  ASSERT_TRUE(problem.ok());
  auto cold = SolveTwoStep(*problem);
  ASSERT_TRUE(cold.ok());

  GroupingSolution empty_seed;
  GroupingSolution warm = SolveWarm(*problem, empty_seed, 1);
  EXPECT_EQ(Memberships(warm), Memberships(*cold));
  EXPECT_EQ(warm.warm_groups_kept, 0u);
  EXPECT_EQ(warm.warm_groups_repaired, 0u);
  EXPECT_EQ(warm.warm_members_missing, 0u);
}

}  // namespace
}  // namespace thrifty
