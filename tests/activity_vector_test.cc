#include "activity/activity_vector.h"

#include <gtest/gtest.h>

#include "oracles/dense_epochizer.h"

namespace thrifty {
namespace {

EpochConfig TenByTenSeconds() {
  return EpochConfig{10 * kSecond, 0, 100 * kSecond};
}

TEST(IntervalsToBitmapTest, MarksOverlappedEpochs) {
  IntervalSet set;
  set.Add(15 * kSecond, 35 * kSecond);  // touches epochs 1, 2, 3
  DynamicBitmap bits = IntervalsToBitmap(set, TenByTenSeconds());
  EXPECT_EQ(bits.Popcount(), 3u);
  EXPECT_TRUE(bits.Get(1));
  EXPECT_TRUE(bits.Get(2));
  EXPECT_TRUE(bits.Get(3));
}

TEST(IntervalsToBitmapTest, ExactBoundaryDoesNotSpill) {
  IntervalSet set;
  set.Add(10 * kSecond, 20 * kSecond);  // exactly epoch 1
  DynamicBitmap bits = IntervalsToBitmap(set, TenByTenSeconds());
  EXPECT_EQ(bits.Popcount(), 1u);
  EXPECT_TRUE(bits.Get(1));
}

TEST(IntervalsToBitmapTest, SubEpochQueryStillMarksItsEpoch) {
  // The paper's epoch-size discussion (§5): a query spanning a tiny part of
  // an epoch makes the tenant active in that whole epoch.
  IntervalSet set;
  set.Add(41 * kSecond, 42 * kSecond);
  DynamicBitmap bits = IntervalsToBitmap(set, TenByTenSeconds());
  EXPECT_EQ(bits.Popcount(), 1u);
  EXPECT_TRUE(bits.Get(4));
}

TEST(IntervalsToBitmapTest, ClipsToHorizon) {
  IntervalSet set;
  set.Add(-20 * kSecond, 5 * kSecond);
  set.Add(95 * kSecond, 300 * kSecond);
  DynamicBitmap bits = IntervalsToBitmap(set, TenByTenSeconds());
  EXPECT_TRUE(bits.Get(0));
  EXPECT_TRUE(bits.Get(9));
  EXPECT_EQ(bits.Popcount(), 2u);
}

TEST(ActivityVectorTest, SparseRoundTrip) {
  DynamicBitmap bits(300);
  bits.SetRange(10, 20);
  bits.SetRange(190, 230);
  bits.Set(299);
  ActivityVector v = ActivityVector::FromBitmap(7, bits);
  EXPECT_EQ(v.tenant_id(), 7);
  EXPECT_EQ(v.num_epochs(), 300u);
  EXPECT_EQ(v.ActiveEpochs(), bits.Popcount());
  EXPECT_EQ(v.ToBitmap(), bits);
  EXPECT_TRUE(v.Get(10));
  EXPECT_FALSE(v.Get(9));
  EXPECT_TRUE(v.Get(299));
  EXPECT_FALSE(v.Get(150));
}

TEST(ActivityVectorTest, EmptyVector) {
  DynamicBitmap bits(100);
  ActivityVector v = ActivityVector::FromBitmap(1, bits);
  EXPECT_EQ(v.ActiveEpochs(), 0u);
  EXPECT_EQ(v.ActiveRatio(), 0);
  EXPECT_TRUE(v.word_indices().empty());
}

TEST(ActivityVectorTest, ActiveRatio) {
  DynamicBitmap bits(100);
  bits.SetRange(0, 25);
  ActivityVector v = ActivityVector::FromBitmap(1, bits);
  EXPECT_DOUBLE_EQ(v.ActiveRatio(), 0.25);
}

TEST(ActivityVectorTest, FromLog) {
  TenantLog log;
  log.tenant_id = 3;
  log.entries.push_back({5 * kSecond, 0, 10 * kSecond, -1});   // [5, 15)
  log.entries.push_back({12 * kSecond, 1, 30 * kSecond, -1});  // [12, 42)
  ActivityVector v = MakeActivityVector(log, TenByTenSeconds());
  EXPECT_EQ(v.tenant_id(), 3);
  // Active in [5 s, 42 s): epochs 0-4.
  EXPECT_EQ(v.ActiveEpochs(), 5u);
  for (size_t k = 0; k <= 4; ++k) EXPECT_TRUE(v.Get(k)) << k;
  EXPECT_FALSE(v.Get(5));
}

}  // namespace
}  // namespace thrifty
