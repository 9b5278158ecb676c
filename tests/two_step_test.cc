#include "placement/two_step.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fig51_fixture.h"
#include "placement/ffd.h"

namespace thrifty {
namespace {

using testing_fixtures::Fig51Activities;
using testing_fixtures::kFig51Epochs;

std::vector<TenantSpec> UniformTenants(size_t count, int nodes) {
  std::vector<TenantSpec> tenants(count);
  for (size_t i = 0; i < count; ++i) {
    tenants[i].id = static_cast<TenantId>(i + 1);
    tenants[i].requested_nodes = nodes;
    tenants[i].data_gb = 100.0 * nodes;
  }
  return tenants;
}

TEST(CompareCandidateLevelsTest, LowerTopLevelWins) {
  // a: exactly-1 = 5; b: exactly-1 = 3, exactly-2 = 1.
  std::vector<size_t> a = {5};
  std::vector<size_t> b = {4, 1};
  EXPECT_LT(CompareCandidateLevels(a, b), 0);
  EXPECT_GT(CompareCandidateLevels(b, a), 0);
}

TEST(CompareCandidateLevelsTest, TieCascadesDownward) {
  // Same top level; fewer exactly-1 epochs wins (Fig 5.3a: T2 over T4).
  std::vector<size_t> t2 = {7};  // 1-active 70%
  std::vector<size_t> t4 = {8};  // 1-active 80%
  EXPECT_LT(CompareCandidateLevels(t2, t4), 0);
}

TEST(CompareCandidateLevelsTest, FullTieReturnsZero) {
  std::vector<size_t> a = {6, 2};
  std::vector<size_t> b = {6, 2};
  EXPECT_EQ(CompareCandidateLevels(a, b), 0);
}

TEST(CompareCandidateLevelsTest, DifferentLengthsPadWithZero) {
  std::vector<size_t> shallow = {6};
  std::vector<size_t> deep = {6, 1};
  EXPECT_LT(CompareCandidateLevels(shallow, deep), 0);
}

// The golden test: the full Fig 5.3 walkthrough. With R=3 and P=99.9%, the
// heuristic must build TG1 = {T3, T2, T5, T4, T6} (in that insertion order)
// and reject T1 into its own group.
TEST(TwoStepTest, Fig53Walkthrough) {
  auto activities = Fig51Activities();
  auto tenants = UniformTenants(6, 4);
  auto problem = MakePackingProblem(tenants, activities, 3, 0.999);
  ASSERT_TRUE(problem.ok());
  auto solution = SolveTwoStep(*problem);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->groups.size(), 2u);
  // Insertion order is preserved in tenant_ids.
  EXPECT_EQ(solution->groups[0].tenant_ids,
            (std::vector<TenantId>{3, 2, 5, 4, 6}));
  EXPECT_EQ(solution->groups[1].tenant_ids, (std::vector<TenantId>{1}));
  EXPECT_DOUBLE_EQ(solution->groups[0].ttp, 1.0);
  EXPECT_EQ(solution->groups[0].max_active, 3);
  EXPECT_TRUE(VerifySolution(*problem, *solution).ok());
}

TEST(TwoStepTest, LooserSlaAdmitsT1) {
  // At P = 90% the TTP(3) = 0.9 group of all six tenants is admissible.
  auto activities = Fig51Activities();
  auto tenants = UniformTenants(6, 4);
  auto problem = MakePackingProblem(tenants, activities, 3, 0.90);
  ASSERT_TRUE(problem.ok());
  auto solution = SolveTwoStep(*problem);
  ASSERT_TRUE(solution.ok());
  ASSERT_EQ(solution->groups.size(), 1u);
  EXPECT_EQ(solution->groups[0].tenant_ids.size(), 6u);
}

TEST(TwoStepTest, Step1SeparatesNodeSizes) {
  // Tenants of different sizes never share a group.
  auto activities = Fig51Activities();
  std::vector<TenantSpec> tenants = UniformTenants(6, 4);
  tenants[0].requested_nodes = 8;
  tenants[3].requested_nodes = 8;
  auto problem = MakePackingProblem(tenants, activities, 3, 0.999);
  ASSERT_TRUE(problem.ok());
  auto solution = SolveTwoStep(*problem);
  ASSERT_TRUE(solution.ok());
  for (const auto& group : solution->groups) {
    std::set<int> sizes;
    for (TenantId id : group.tenant_ids) {
      sizes.insert(tenants[static_cast<size_t>(id - 1)].requested_nodes);
    }
    EXPECT_EQ(sizes.size(), 1u);
  }
  EXPECT_TRUE(VerifySolution(*problem, *solution).ok());
}

TEST(TwoStepTest, ReplicationFactorOneStillGroups) {
  // With R = 1, tenants whose activities never overlap can share a group.
  std::vector<ActivityVector> activities;
  DynamicBitmap a(10), b(10);
  a.SetRange(0, 3);
  b.SetRange(5, 8);
  activities.push_back(ActivityVector::FromBitmap(1, a));
  activities.push_back(ActivityVector::FromBitmap(2, b));
  auto tenants = UniformTenants(2, 2);
  auto problem = MakePackingProblem(tenants, activities, 1, 1.0);
  ASSERT_TRUE(problem.ok());
  auto solution = SolveTwoStep(*problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->groups.size(), 1u);
  EXPECT_EQ(solution->groups[0].tenant_ids.size(), 2u);
}

TEST(TwoStepTest, AlwaysOverlappingTenantsGetOwnGroups) {
  // Two tenants active in every epoch: with R = 1 they cannot share.
  std::vector<ActivityVector> activities;
  for (TenantId id = 1; id <= 2; ++id) {
    DynamicBitmap bits(10);
    bits.SetRange(0, 10);
    activities.push_back(ActivityVector::FromBitmap(id, bits));
  }
  auto tenants = UniformTenants(2, 2);
  auto problem = MakePackingProblem(tenants, activities, 1, 0.999);
  ASSERT_TRUE(problem.ok());
  auto solution = SolveTwoStep(*problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->groups.size(), 2u);
}

TEST(TwoStepTest, SeedIsLeastActiveTenant) {
  // The first member of the first group is the tenant with fewest active
  // epochs (T3 in the Fig 5.1 data).
  auto activities = Fig51Activities();
  auto tenants = UniformTenants(6, 4);
  auto problem = MakePackingProblem(tenants, activities, 3, 0.999);
  ASSERT_TRUE(problem.ok());
  auto solution = SolveTwoStep(*problem);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(solution->groups[0].tenant_ids[0], 3);
}

// Property test over random instances: solutions are always feasible and
// complete, across R and P.
class TwoStepRandomized
    : public ::testing::TestWithParam<std::pair<int, double>> {};

TEST_P(TwoStepRandomized, SolutionsAreAlwaysFeasible) {
  auto [r, p] = GetParam();
  Rng rng(static_cast<uint64_t>(r * 1000) +
          static_cast<uint64_t>(p * 10000));
  for (int trial = 0; trial < 5; ++trial) {
    const size_t num_epochs = 500;
    std::vector<ActivityVector> activities;
    std::vector<TenantSpec> tenants;
    const int sizes[] = {2, 4, 8};
    for (TenantId id = 0; id < 40; ++id) {
      DynamicBitmap bits(num_epochs);
      int runs = static_cast<int>(rng.NextInt(1, 4));
      for (int run = 0; run < runs; ++run) {
        size_t begin = rng.NextBounded(num_epochs);
        bits.SetRange(begin, begin + 20 + rng.NextBounded(60));
      }
      activities.push_back(ActivityVector::FromBitmap(id, bits));
      TenantSpec spec;
      spec.id = id;
      spec.requested_nodes = sizes[rng.NextBounded(3)];
      tenants.push_back(spec);
    }
    auto problem = MakePackingProblem(tenants, activities, r, p);
    ASSERT_TRUE(problem.ok());
    auto solution = SolveTwoStep(*problem);
    ASSERT_TRUE(solution.ok());
    EXPECT_TRUE(VerifySolution(*problem, *solution).ok())
        << "R=" << r << " P=" << p << " trial=" << trial;
    // Cost can never exceed serving every tenant in its own group.
    int64_t worst = 0;
    for (const auto& t : tenants) worst += r * t.requested_nodes;
    EXPECT_LE(solution->NodesUsed(r), worst);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RAndP, TwoStepRandomized,
    ::testing::Values(std::pair<int, double>{1, 0.999},
                      std::pair<int, double>{2, 0.999},
                      std::pair<int, double>{3, 0.999},
                      std::pair<int, double>{4, 0.999},
                      std::pair<int, double>{3, 0.95},
                      std::pair<int, double>{3, 0.99},
                      std::pair<int, double>{3, 0.9999},
                      std::pair<int, double>{3, 1.0}));

// The argmin work counters, pinned on a 600-tenant single-class instance
// (wide enough that the scan splits into shards at solver_jobs 2 and 4).
// argmin_candidates counts every live candidate of every growth step, a
// function of the grouping alone, so it is pinned at every solver_jobs.
// argmin_bound_skips is pinned at solver_jobs 1 only: each scan shard
// starts with no incumbent, so how many candidates the carried bounds
// reject depends on where the shards split.
TEST(TwoStepTest, ArgminWorkCountersArePinned) {
  Rng rng(2024);
  const size_t num_epochs = 512;
  std::vector<ActivityVector> activities;
  for (TenantId id = 1; id <= 600; ++id) {
    DynamicBitmap bits(num_epochs);
    const int runs = static_cast<int>(rng.NextInt(1, 4));
    for (int run = 0; run < runs; ++run) {
      const size_t begin = rng.NextBounded(num_epochs);
      bits.SetRange(begin, begin + 8 + rng.NextBounded(40));
    }
    activities.push_back(ActivityVector::FromBitmap(id, bits));
  }
  auto problem = MakePackingProblem(UniformTenants(600, 4), activities, 3,
                                    0.99);
  ASSERT_TRUE(problem.ok());
  for (int jobs : {1, 2, 4}) {
    TwoStepOptions options;
    options.solver_jobs = jobs;
    auto solution = SolveTwoStep(*problem, options);
    ASSERT_TRUE(solution.ok());
    // Each step scans every remaining candidate and then removes one (the
    // winner, or after a close the next group's seed): 599 + ... + 1.
    EXPECT_EQ(solution->argmin_candidates, 179700u) << "jobs=" << jobs;
    if (jobs == 1) {
      EXPECT_EQ(solution->argmin_bound_skips, 141658u);
    }
  }
}

// --- Warm start -----------------------------------------------------------

/// A small random instance shared by the warm-start tests.
std::pair<std::vector<TenantSpec>, std::vector<ActivityVector>>
WarmStartInstance(uint64_t seed) {
  Rng rng(seed);
  const size_t num_epochs = 400;
  std::vector<ActivityVector> activities;
  std::vector<TenantSpec> tenants;
  const int sizes[] = {2, 4};
  for (TenantId id = 0; id < 30; ++id) {
    DynamicBitmap bits(num_epochs);
    int runs = static_cast<int>(rng.NextInt(1, 4));
    for (int run = 0; run < runs; ++run) {
      size_t begin = rng.NextBounded(num_epochs);
      bits.SetRange(begin, begin + 20 + rng.NextBounded(50));
    }
    activities.push_back(ActivityVector::FromBitmap(id, bits));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = sizes[rng.NextBounded(2)];
    tenants.push_back(spec);
  }
  return {std::move(tenants), std::move(activities)};
}

TEST(TwoStepWarmStartTest, SeededSolveIsFeasibleAndKeepsFeasibleSeeds) {
  auto [tenants, activities] = WarmStartInstance(991);
  auto problem = MakePackingProblem(tenants, activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  auto cold = SolveTwoStep(*problem);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(VerifySolution(*problem, *cold).ok());

  // Seeding a solve with its own cold solution: every seed group is
  // feasible by construction, so all are kept, none repaired, and the
  // result (same groups, regrown with nothing left to add) stays valid.
  TwoStepOptions options;
  options.warm_start = &*cold;
  auto warm = SolveTwoStep(*problem, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(VerifySolution(*problem, *warm).ok());
  EXPECT_EQ(warm->warm_groups_kept, cold->groups.size());
  EXPECT_EQ(warm->warm_groups_repaired, 0u);
  EXPECT_EQ(warm->groups.size(), cold->groups.size());
  EXPECT_EQ(warm->NodesUsed(3), cold->NodesUsed(3));
}

TEST(TwoStepWarmStartTest, InfeasibleSeedGroupIsRepairedByEviction) {
  auto [tenants, activities] = WarmStartInstance(1733);
  auto problem = MakePackingProblem(tenants, activities, 3, 0.999);
  ASSERT_TRUE(problem.ok());

  GroupingSolution bad_seed;
  std::map<int, TenantGroupResult> by_size;
  for (const auto& t : tenants) {
    by_size[t.requested_nodes].tenant_ids.push_back(t.id);
  }
  for (auto& [nodes, group] : by_size) bad_seed.groups.push_back(group);

  // One giant seed group per size class: cramming every tenant together
  // violates the SLA (the cold solve needs several groups). The infeasible
  // seeds are repaired — members are evicted until the fuzzy capacity
  // holds, and the group survives.
  TwoStepOptions options;
  options.warm_start = &bad_seed;
  auto warm = SolveTwoStep(*problem, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(VerifySolution(*problem, *warm).ok());
  EXPECT_EQ(warm->warm_groups_kept, 0u);
  EXPECT_EQ(warm->warm_groups_repaired, bad_seed.groups.size());
  EXPECT_GT(warm->warm_members_evicted, 0u);
  // Every evictee re-enters the pool, so the solution still covers all
  // tenants, and each repaired group's TTP meets P — VerifySolution
  // asserts both.
}

TEST(TwoStepWarmStartTest, SeedAcrossSlaTighteningStaysWithinOnePoint) {
  // The fig7_5 pattern: solve at a loose P, seed the tight-P solve with
  // it. Feasible-at-tight-P groups are kept, the rest repaired, and the
  // warm effectiveness stays within one percentage point of cold.
  auto [tenants, activities] = WarmStartInstance(4211);
  auto loose_problem = MakePackingProblem(tenants, activities, 3, 0.95);
  auto tight_problem = MakePackingProblem(tenants, activities, 3, 0.999);
  ASSERT_TRUE(loose_problem.ok());
  ASSERT_TRUE(tight_problem.ok());
  auto loose = SolveTwoStep(*loose_problem);
  ASSERT_TRUE(loose.ok());

  TwoStepOptions options;
  options.warm_start = &*loose;
  auto warm = SolveTwoStep(*tight_problem, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(VerifySolution(*tight_problem, *warm).ok());
  // Every seed group is either kept as-is or repaired.
  EXPECT_EQ(warm->warm_groups_kept + warm->warm_groups_repaired,
            loose->groups.size());

  auto cold = SolveTwoStep(*tight_problem);
  ASSERT_TRUE(cold.ok());
  int64_t requested = tight_problem->TotalRequestedNodes();
  double warm_eff = warm->ConsolidationEffectiveness(3, requested);
  double cold_eff = cold->ConsolidationEffectiveness(3, requested);
  EXPECT_NEAR(warm_eff, cold_eff, 0.01);
}

TEST(TwoStepWarmStartTest, StaleSeedIdsAndDuplicatesAreIgnored) {
  auto [tenants, activities] = WarmStartInstance(58);
  auto problem = MakePackingProblem(tenants, activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());

  GroupingSolution seed;
  TenantGroupResult g1;
  g1.tenant_ids = {0, 1, 999};  // 999 does not exist at this sweep point
  TenantGroupResult g2;
  g2.tenant_ids = {1, 2};  // tenant 1 already seeded in g1
  seed.groups = {g1, g2};

  TwoStepOptions options;
  options.warm_start = &seed;
  auto warm = SolveTwoStep(*problem, options);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(VerifySolution(*problem, *warm).ok());
}

}  // namespace
}  // namespace thrifty
