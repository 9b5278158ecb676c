#include "mppdb/query_model.h"

#include <gtest/gtest.h>

namespace thrifty {
namespace {

QueryTemplate MakeTemplate(double work, double serial) {
  QueryTemplate t;
  t.id = 0;
  t.name = "test";
  t.work_seconds_per_gb = work;
  t.serial_fraction = serial;
  return t;
}

TEST(QueryModelTest, SingleNodeLatencyIsWorkTimesData) {
  QueryTemplate t = MakeTemplate(2.0, 0.0);
  EXPECT_EQ(t.DedicatedLatency(100, 1), SecondsToDuration(200));
}

TEST(QueryModelTest, FullyParallelScalesLinearly) {
  QueryTemplate t = MakeTemplate(1.0, 0.0);
  SimDuration one = t.DedicatedLatency(100, 1);
  EXPECT_EQ(t.DedicatedLatency(100, 2), one / 2);
  EXPECT_EQ(t.DedicatedLatency(100, 4), one / 4);
  EXPECT_EQ(t.DedicatedLatency(100, 10), one / 10);
}

TEST(QueryModelTest, SerialFractionLimitsSpeedup) {
  QueryTemplate t = MakeTemplate(1.0, 0.5);
  // Amdahl: max speedup 2 regardless of nodes.
  EXPECT_LT(t.Speedup(1000), 2.0);
  EXPECT_NEAR(t.Speedup(1000), 2.0, 0.01);
  EXPECT_NEAR(t.Speedup(2), 1.0 / (0.5 + 0.25), 1e-12);
  // 100 GB x 1 s/GB x (0.2 + 0.8/4) = 40 s on 4 nodes.
  t.serial_fraction = 0.2;
  EXPECT_EQ(t.DedicatedLatency(100, 4), 40 * kSecond);
}

TEST(QueryModelTest, LatencyMonotoneDecreasingInNodes) {
  QueryTemplate t = MakeTemplate(0.35, 0.35);
  SimDuration prev = t.DedicatedLatency(100, 1);
  for (int n = 2; n <= 64; n *= 2) {
    SimDuration cur = t.DedicatedLatency(100, n);
    EXPECT_LE(cur, prev);
    prev = cur;
  }
}

TEST(QueryModelTest, LatencyProportionalToData) {
  QueryTemplate t = MakeTemplate(0.5, 0.1);
  SimDuration base = t.DedicatedLatency(100, 4);
  EXPECT_NEAR(static_cast<double>(t.DedicatedLatency(200, 4)),
              2.0 * static_cast<double>(base), 2.0);
}

TEST(QueryModelTest, MinimumOneTick) {
  QueryTemplate t = MakeTemplate(1e-9, 0.0);
  EXPECT_EQ(t.DedicatedLatency(0.001, 32), 1);
}

TEST(QueryModelTest, LinearScaleOutClassification) {
  QueryTemplate q1 = MakeTemplate(0.6, 0.02);
  QueryTemplate q19 = MakeTemplate(0.35, 0.35);
  // The paper's Fig 1.1 dichotomy: Q1 is linear at the tested node counts,
  // Q19 is not.
  EXPECT_TRUE(IsLinearScaleOut(q1, 8));
  EXPECT_FALSE(IsLinearScaleOut(q19, 8));
}

class SpeedupSweep : public ::testing::TestWithParam<int> {};

TEST_P(SpeedupSweep, SpeedupBetweenOneAndNodes) {
  int nodes = GetParam();
  for (double s : {0.0, 0.05, 0.2, 0.5, 0.9}) {
    QueryTemplate t = MakeTemplate(1.0, s);
    double speedup = t.Speedup(nodes);
    EXPECT_GE(speedup, 1.0 - 1e-12);
    EXPECT_LE(speedup, static_cast<double>(nodes) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, SpeedupSweep,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

}  // namespace
}  // namespace thrifty
