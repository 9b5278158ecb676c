#include "activity/level_set.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fig51_fixture.h"

namespace thrifty {
namespace {

using testing_fixtures::Fig51Activities;
using testing_fixtures::kFig51Epochs;

ActivityVector MakeVector(TenantId id, size_t num_epochs,
                          std::vector<size_t> active) {
  DynamicBitmap bits(num_epochs);
  for (size_t k : active) bits.Set(k);
  return ActivityVector::FromBitmap(id, bits);
}

TEST(LevelSetTest, EmptyGroup) {
  GroupLevelSet g(10);
  EXPECT_EQ(g.num_tenants(), 0);
  EXPECT_EQ(g.MaxActive(), 0);
  EXPECT_EQ(g.Ttp(0), 1.0);
  EXPECT_EQ(g.Ttp(3), 1.0);
  EXPECT_EQ(g.CountAtLeast(1), 0u);
  EXPECT_EQ(g.CountAtMost(0), 10u);
}

TEST(LevelSetTest, SingleTenant) {
  GroupLevelSet g(10);
  g.Add(MakeVector(1, 10, {0, 1, 2}));
  EXPECT_EQ(g.num_tenants(), 1);
  EXPECT_EQ(g.MaxActive(), 1);
  EXPECT_EQ(g.CountAtLeast(1), 3u);
  EXPECT_EQ(g.CountAtMost(0), 7u);
  EXPECT_DOUBLE_EQ(g.Ttp(0), 0.7);
  EXPECT_DOUBLE_EQ(g.Ttp(1), 1.0);
}

TEST(LevelSetTest, OverlapCreatesLevels) {
  GroupLevelSet g(10);
  g.Add(MakeVector(1, 10, {0, 1, 2}));
  g.Add(MakeVector(2, 10, {2, 3}));
  g.Add(MakeVector(3, 10, {2}));
  EXPECT_EQ(g.MaxActive(), 3);
  EXPECT_EQ(g.CountAtLeast(1), 4u);  // epochs 0,1,2,3
  EXPECT_EQ(g.CountAtLeast(2), 1u);  // epoch 2
  EXPECT_EQ(g.CountAtLeast(3), 1u);
  EXPECT_EQ(g.CountAtLeast(4), 0u);
  auto fractions = g.ExactLevelFractions();
  ASSERT_EQ(fractions.size(), 3u);
  EXPECT_DOUBLE_EQ(fractions[0], 0.3);  // exactly 1 active: 0,1,3
  EXPECT_DOUBLE_EQ(fractions[1], 0.0);  // exactly 2: none
  EXPECT_DOUBLE_EQ(fractions[2], 0.1);  // exactly 3: epoch 2
}

TEST(LevelSetTest, PaperCountExample) {
  // §5: sum of {T1,T4,T5,T6} = <2,2,2,2,4,3,2,1,2,1>; COUNT^{<=3} = 9.
  auto tenants = Fig51Activities();
  GroupLevelSet g(kFig51Epochs);
  g.Add(tenants[0]);  // T1
  g.Add(tenants[3]);  // T4
  g.Add(tenants[4]);  // T5
  g.Add(tenants[5]);  // T6
  EXPECT_EQ(g.CountAtMost(3), 9u);
  EXPECT_EQ(g.MaxActive(), 4);
  EXPECT_DOUBLE_EQ(g.Ttp(3), 0.9);
}

TEST(LevelSetTest, Fig53PanelEGroupLevels) {
  // Panel (e): {T2..T6} has 1-active 10%, 2-active 60%, 3-active 30%.
  auto tenants = Fig51Activities();
  GroupLevelSet g(kFig51Epochs);
  for (size_t i = 1; i <= 5; ++i) g.Add(tenants[i]);
  auto fractions = g.ExactLevelFractions();
  ASSERT_EQ(fractions.size(), 3u);
  EXPECT_DOUBLE_EQ(fractions[0], 0.1);
  EXPECT_DOUBLE_EQ(fractions[1], 0.6);
  EXPECT_DOUBLE_EQ(fractions[2], 0.3);
  EXPECT_DOUBLE_EQ(g.Ttp(3), 1.0);
}

TEST(LevelSetTest, Fig53PanelEAddingT1) {
  // Panel (e): adding T1 gives 0%/30%/60%/10% and TTP(3) drops to 90%.
  auto tenants = Fig51Activities();
  GroupLevelSet g(kFig51Epochs);
  for (size_t i = 1; i <= 5; ++i) g.Add(tenants[i]);

  auto pops = g.EvaluateAdd(tenants[0]);
  EXPECT_DOUBLE_EQ(g.TtpFromPopcounts(pops, 3), 0.9);

  g.Add(tenants[0]);
  auto fractions = g.ExactLevelFractions();
  ASSERT_EQ(fractions.size(), 4u);
  EXPECT_DOUBLE_EQ(fractions[0], 0.0);
  EXPECT_DOUBLE_EQ(fractions[1], 0.3);
  EXPECT_DOUBLE_EQ(fractions[2], 0.6);
  EXPECT_DOUBLE_EQ(fractions[3], 0.1);
  EXPECT_DOUBLE_EQ(g.Ttp(3), 0.9);
}

TEST(LevelSetTest, EvaluateAddMatchesActualAdd) {
  auto tenants = Fig51Activities();
  GroupLevelSet g(kFig51Epochs);
  for (size_t i = 0; i < tenants.size(); ++i) {
    auto predicted = g.EvaluateAdd(tenants[i]);
    g.Add(tenants[i]);
    EXPECT_EQ(predicted, g.level_popcounts()) << "adding tenant " << i + 1;
  }
}

TEST(LevelSetTest, RemoveInvertsAdd) {
  auto tenants = Fig51Activities();
  GroupLevelSet g(kFig51Epochs);
  g.Add(tenants[1]);
  g.Add(tenants[2]);
  auto before = g.level_popcounts();
  g.Add(tenants[0]);
  ASSERT_TRUE(g.Remove(tenants[0]).ok());
  EXPECT_EQ(g.level_popcounts(), before);
  EXPECT_EQ(g.num_tenants(), 2);
}

TEST(LevelSetTest, RemoveFromEmptyFails) {
  GroupLevelSet g(10);
  EXPECT_EQ(g.Remove(MakeVector(1, 10, {0})).code(),
            StatusCode::kFailedPrecondition);
}

TEST(LevelSetTest, RemoveAllTenantsDrainsLevels) {
  auto tenants = Fig51Activities();
  GroupLevelSet g(kFig51Epochs);
  for (const auto& t : tenants) g.Add(t);
  for (const auto& t : tenants) ASSERT_TRUE(g.Remove(t).ok());
  EXPECT_EQ(g.num_tenants(), 0);
  EXPECT_EQ(g.MaxActive(), 0);
  EXPECT_EQ(g.CountAtLeast(1), 0u);
}

// Property test: levels match a brute-force per-epoch counting reference
// under random adds and removes, across epoch counts that exercise word
// boundaries.
class LevelSetRandomized : public ::testing::TestWithParam<size_t> {};

TEST_P(LevelSetRandomized, MatchesBruteForce) {
  const size_t num_epochs = GetParam();
  Rng rng(num_epochs * 7919 + 13);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<ActivityVector> pool;
    for (TenantId id = 0; id < 12; ++id) {
      DynamicBitmap bits(num_epochs);
      // Bursty activity: a few contiguous runs, like office hours.
      int runs = static_cast<int>(rng.NextInt(0, 4));
      for (int r = 0; r < runs; ++r) {
        size_t begin = rng.NextBounded(num_epochs);
        size_t len = 1 + rng.NextBounded(num_epochs / 3 + 1);
        bits.SetRange(begin, begin + len);
      }
      pool.push_back(ActivityVector::FromBitmap(id, bits));
    }

    GroupLevelSet g(num_epochs);
    std::vector<int> counts(num_epochs, 0);
    std::vector<bool> in_group(pool.size(), false);
    for (int op = 0; op < 40; ++op) {
      size_t pick = rng.NextBounded(pool.size());
      if (!in_group[pick]) {
        // Check EvaluateAdd against the post-add truth before mutating.
        auto predicted = g.EvaluateAdd(pool[pick]);
        g.Add(pool[pick]);
        EXPECT_EQ(predicted, g.level_popcounts());
        in_group[pick] = true;
        for (size_t k = 0; k < num_epochs; ++k) {
          counts[k] += pool[pick].Get(k) ? 1 : 0;
        }
      } else {
        ASSERT_TRUE(g.Remove(pool[pick]).ok());
        in_group[pick] = false;
        for (size_t k = 0; k < num_epochs; ++k) {
          counts[k] -= pool[pick].Get(k) ? 1 : 0;
        }
      }
      // Verify all level popcounts against brute force.
      int max_count = 0;
      for (int c : counts) max_count = std::max(max_count, c);
      ASSERT_EQ(g.MaxActive(), max_count);
      for (int m = 1; m <= max_count + 1; ++m) {
        size_t expected = 0;
        for (int c : counts) expected += c >= m ? 1 : 0;
        ASSERT_EQ(g.CountAtLeast(m), expected)
            << "level " << m << " epochs " << num_epochs;
      }
      for (int r = 0; r <= max_count; ++r) {
        size_t expected = 0;
        for (int c : counts) expected += c <= r ? 1 : 0;
        ASSERT_EQ(g.CountAtMost(r), expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpochCounts, LevelSetRandomized,
                         ::testing::Values(10, 63, 64, 65, 128, 200, 1000));

// Property test: EvaluateAdd against a naive per-epoch recount of the
// would-be group, without mutating the set. Candidates always include the
// two degenerate vectors the grouping loop can feed it — all-zero (a tenant
// with no activity) and full (active in every epoch).
TEST(LevelSetTest, EvaluateAddMatchesNaiveRecount) {
  for (size_t num_epochs : {10u, 64u, 130u}) {
    Rng rng(num_epochs * 104729 + 7);
    for (int trial = 0; trial < 8; ++trial) {
      GroupLevelSet g(num_epochs);
      std::vector<int> counts(num_epochs, 0);
      int members = static_cast<int>(rng.NextInt(0, 8));
      for (int t = 0; t < members; ++t) {
        DynamicBitmap bits(num_epochs);
        int runs = static_cast<int>(rng.NextInt(0, 3));
        for (int r = 0; r < runs; ++r) {
          size_t begin = rng.NextBounded(num_epochs);
          bits.SetRange(begin, begin + 1 + rng.NextBounded(num_epochs / 2));
        }
        ActivityVector v =
            ActivityVector::FromBitmap(static_cast<TenantId>(t), bits);
        g.Add(v);
        for (size_t k = 0; k < num_epochs; ++k) counts[k] += bits.Get(k);
      }

      std::vector<ActivityVector> candidates;
      for (int c = 0; c < 5; ++c) {
        DynamicBitmap bits(num_epochs);
        int runs = static_cast<int>(rng.NextInt(0, 3));
        for (int r = 0; r < runs; ++r) {
          size_t begin = rng.NextBounded(num_epochs);
          bits.SetRange(begin, begin + 1 + rng.NextBounded(num_epochs / 2));
        }
        candidates.push_back(ActivityVector::FromBitmap(100 + c, bits));
      }
      DynamicBitmap zero(num_epochs);
      candidates.push_back(ActivityVector::FromBitmap(200, zero));
      DynamicBitmap full(num_epochs);
      full.SetRange(0, num_epochs);
      candidates.push_back(ActivityVector::FromBitmap(201, full));

      for (const auto& cand : candidates) {
        int max_count = 0;
        std::vector<int> would_be(counts);
        for (size_t k = 0; k < num_epochs; ++k) {
          would_be[k] += cand.Get(k) ? 1 : 0;
          max_count = std::max(max_count, would_be[k]);
        }
        std::vector<size_t> expected(static_cast<size_t>(max_count), 0);
        for (int c : would_be) {
          for (int m = 1; m <= c; ++m) ++expected[m - 1];
        }
        EXPECT_EQ(g.EvaluateAdd(cand), expected)
            << "epochs " << num_epochs << " trial " << trial << " candidate "
            << cand.tenant_id();
      }
    }
  }
}

TEST(LevelSetTest, EvaluateAddAllZeroCandidateOnEmptyGroupIsEmpty) {
  GroupLevelSet g(64);
  DynamicBitmap zero(64);
  EXPECT_TRUE(g.EvaluateAdd(ActivityVector::FromBitmap(1, zero)).empty());
  DynamicBitmap full(64);
  full.SetRange(0, 64);
  EXPECT_EQ(g.EvaluateAdd(ActivityVector::FromBitmap(2, full)),
            (std::vector<size_t>{64}));
}

// A candidate that matches every touched column of a tall group makes the
// evaluation plan gather every level row: the plan's arena use is then at
// its bound. The arena block here is large enough to be returned to the OS
// on free, so a growth in the middle of the plan (which would leave the
// plan's spans dangling) crashes rather than reading stale memory.
TEST(LevelSetTest, EvaluateAddFullyMatchedTallGroupFitsItsArena) {
  const size_t num_epochs = 64 * 8192;
  DynamicBitmap full(num_epochs);
  full.SetRange(0, num_epochs);
  GroupLevelSet g(num_epochs);
  for (TenantId id = 1; id <= 3; ++id) {
    g.Add(ActivityVector::FromBitmap(id, full));
  }
  const ActivityVector candidate = ActivityVector::FromBitmap(4, full);
  EXPECT_EQ(g.EvaluateAdd(candidate),
            (std::vector<size_t>(4, num_epochs)));
}

}  // namespace
}  // namespace thrifty
