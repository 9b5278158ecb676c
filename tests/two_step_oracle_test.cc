// SolveTwoStep against the serial reference loop (tests/oracles): every
// shortcut of the production argmin — sharded scans, the word -> column
// table, the top-two-level screen, pruned compares and the top-level
// bounds carried across growth steps — must leave the grouping exactly as
// the plain "evaluate every candidate, keep the Fig 5.3 best" loop builds
// it, cold and warm-started, at every solver_jobs.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "oracles/reference_two_step.h"
#include "placement/two_step.h"

namespace thrifty {
namespace {

struct Instance {
  std::vector<ActivityVector> activities;
  std::vector<TenantSpec> tenants;
  int r = 3;
  double p = 0.999;
};

/// A random instance. Every fortieth seed is "wide": one size class of 400
/// tenants, enough raw slots for the argmin scan to split into shards at
/// solver_jobs 4. About one tenant in eight has no activity at all, so
/// groups seeded with one see empty candidate outcomes, and about one in
/// eight copies an earlier tenant's activity, so candidates tie at every
/// level and the tenant-id tie-break decides.
Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  const bool wide = seed % 40 == 0;
  const int num_tenants =
      wide ? 400 : 20 + static_cast<int>(rng.NextBounded(50));
  const size_t num_epochs = wide ? 256 : 64 + rng.NextBounded(448);
  const int sizes[] = {2, 4, 8};
  const double slas[] = {0.9, 0.95, 0.99, 0.999};
  Instance inst;
  inst.r = 1 + static_cast<int>(rng.NextBounded(4));
  inst.p = slas[rng.NextBounded(4)];
  std::vector<DynamicBitmap> drawn;
  for (TenantId id = 1; id <= num_tenants; ++id) {
    DynamicBitmap bits(num_epochs);
    const uint64_t kind = rng.NextBounded(8);
    if (kind == 1 && !drawn.empty()) {
      bits = drawn[rng.NextBounded(drawn.size())];  // an exact duplicate
    } else if (kind != 0) {
      const int runs = static_cast<int>(rng.NextInt(1, 4));
      for (int run = 0; run < runs; ++run) {
        const size_t begin = rng.NextBounded(num_epochs);
        bits.SetRange(begin, begin + 5 + rng.NextBounded(num_epochs / 5));
      }
    }
    drawn.push_back(bits);
    inst.activities.push_back(ActivityVector::FromBitmap(id, bits));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = wide ? 4 : sizes[rng.NextBounded(3)];
    inst.tenants.push_back(spec);
  }
  return inst;
}

void ExpectSameGrouping(const GroupingSolution& expected,
                        const GroupingSolution& actual,
                        const std::string& context) {
  ASSERT_EQ(expected.groups.size(), actual.groups.size()) << context;
  for (size_t g = 0; g < expected.groups.size(); ++g) {
    const TenantGroupResult& e = expected.groups[g];
    const TenantGroupResult& a = actual.groups[g];
    EXPECT_EQ(e.tenant_ids, a.tenant_ids) << context << " group " << g;
    EXPECT_EQ(e.max_nodes, a.max_nodes) << context << " group " << g;
    EXPECT_EQ(e.ttp, a.ttp) << context << " group " << g;
    EXPECT_EQ(e.max_active, a.max_active) << context << " group " << g;
  }
  EXPECT_EQ(expected.warm_groups_kept, actual.warm_groups_kept) << context;
  EXPECT_EQ(expected.warm_groups_repaired, actual.warm_groups_repaired)
      << context;
  EXPECT_EQ(expected.warm_members_evicted, actual.warm_members_evicted)
      << context;
  EXPECT_EQ(expected.warm_members_missing, actual.warm_members_missing)
      << context;
  // Every live candidate is scanned at every step, skipped or not.
  EXPECT_EQ(expected.argmin_candidates, actual.argmin_candidates) << context;
  EXPECT_LE(actual.argmin_bound_skips, actual.argmin_candidates) << context;
}

/// Totals over the whole sweep, so the test can show that each path it
/// claims to cover really ran.
struct Coverage {
  size_t bound_skips = 0;
  size_t repaired = 0;
  size_t sharded_instances = 0;
  int max_active = 0;
  size_t zero_tenants = 0;
};

void CheckAgainstOracle(const PackingProblem& problem,
                        const GroupingSolution* warm_start,
                        const std::string& context, Coverage* coverage) {
  auto expected = ReferenceTwoStep(problem, warm_start);
  ASSERT_TRUE(expected.ok()) << context << ": " << expected.status();
  ASSERT_TRUE(VerifySolution(problem, *expected).ok()) << context;
  coverage->repaired += expected->warm_groups_repaired;
  for (const TenantGroupResult& group : expected->groups) {
    coverage->max_active = std::max(coverage->max_active, group.max_active);
  }
  for (int jobs : {1, 4}) {
    TwoStepOptions options;
    options.solver_jobs = jobs;
    options.warm_start = warm_start;
    auto actual = SolveTwoStep(problem, options);
    ASSERT_TRUE(actual.ok()) << context << " jobs=" << jobs;
    ExpectSameGrouping(*expected, *actual,
                       context + " jobs=" + std::to_string(jobs));
    coverage->bound_skips += actual->argmin_bound_skips;
  }
}

TEST(TwoStepOracleTest, MatchesReferenceLoopColdAndWarm) {
  Coverage coverage;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const Instance inst = MakeInstance(seed);
    auto problem =
        MakePackingProblem(inst.tenants, inst.activities, inst.r, inst.p);
    ASSERT_TRUE(problem.ok());
    const std::string context = "seed " + std::to_string(seed);
    if (inst.tenants.size() >= 384) ++coverage.sharded_instances;
    for (const ActivityVector& v : inst.activities) {
      if (v.ActiveEpochs() == 0) ++coverage.zero_tenants;
    }

    CheckAgainstOracle(*problem, nullptr, context + " cold", &coverage);

    // Warm from a looser-SLA neighbour: its groups are too full for this
    // SLA wherever overlap is high, so some are kept and some repaired. A
    // stale id and a duplicate ride along.
    auto loose_problem =
        MakePackingProblem(inst.tenants, inst.activities, inst.r, 0.8);
    ASSERT_TRUE(loose_problem.ok());
    auto loose = ReferenceTwoStep(*loose_problem);
    ASSERT_TRUE(loose.ok());
    GroupingSolution neighbour = *loose;
    neighbour.groups.front().tenant_ids.push_back(999999);
    neighbour.groups.back().tenant_ids.push_back(
        neighbour.groups.front().tenant_ids.front());
    CheckAgainstOracle(*problem, &neighbour, context + " warm neighbour",
                       &coverage);

    // Warm from one crammed seed group per size class (the first 40
    // tenants), infeasible whenever they overlap more than R deep.
    GroupingSolution crammed;
    crammed.groups.emplace_back();
    for (size_t i = 0; i < inst.tenants.size() && i < 40; ++i) {
      crammed.groups.front().tenant_ids.push_back(inst.tenants[i].id);
    }
    CheckAgainstOracle(*problem, &crammed, context + " warm crammed",
                       &coverage);
  }
  // The sweep exercised what it claims to: carried bounds skipped
  // candidates, seeds were repaired, scans were sharded, groups rose past
  // two levels, and all-zero tenants (least active, so group seeds with an
  // empty outcome against an all-zero group) took part.
  EXPECT_GT(coverage.bound_skips, 0u);
  EXPECT_GT(coverage.repaired, 0u);
  EXPECT_GT(coverage.sharded_instances, 0u);
  EXPECT_GE(coverage.max_active, 3);
  EXPECT_GT(coverage.zero_tenants, 0u);
}

// Carried bounds must never skip a candidate that only ties the incumbent
// on the top two levels. Seed S (epochs [0,2)) and V ([10,14)) are
// disjoint, so M stays 1 after V joins; the duplicates X3, X4, X5
// ([20,28)) lose to V at step 1 on level 1 alone, so their bounds are
// recorded then, and at step 2 they still tie each other at every level.
// The full tie goes to the highest id, X5; a bound one too high would
// skip X4 and X5 and let X3 win.
TEST(TwoStepOracleTest, FullTiesGoToTheHighestIdAfterBoundsCarry) {
  const size_t num_epochs = 64;
  const std::pair<size_t, size_t> spans[] = {
      {0, 2}, {10, 14}, {20, 28}, {20, 28}, {20, 28}};
  std::vector<ActivityVector> activities;
  std::vector<TenantSpec> tenants;
  for (TenantId id = 1; id <= 5; ++id) {
    DynamicBitmap bits(num_epochs);
    bits.SetRange(spans[id - 1].first, spans[id - 1].second);
    activities.push_back(ActivityVector::FromBitmap(id, bits));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = 2;
    tenants.push_back(spec);
  }
  auto problem = MakePackingProblem(tenants, activities, 1, 0.999);
  ASSERT_TRUE(problem.ok());
  auto expected = ReferenceTwoStep(*problem);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->groups.size(), 3u);
  EXPECT_EQ(expected->groups[0].tenant_ids, (std::vector<TenantId>{1, 2, 5}));
  for (int jobs : {1, 4}) {
    TwoStepOptions options;
    options.solver_jobs = jobs;
    auto actual = SolveTwoStep(*problem, options);
    ASSERT_TRUE(actual.ok());
    ExpectSameGrouping(*expected, *actual, "jobs=" + std::to_string(jobs));
  }
}

}  // namespace
}  // namespace thrifty
