#include "activity/burst_detection.h"

#include <gtest/gtest.h>

namespace thrifty {
namespace {

BurstDetectorOptions WeeklyOptions() {
  BurstDetectorOptions options;
  options.period = 7 * kDay;
  options.bin_size = 6 * kHour;
  options.burst_factor = 3.0;
  options.min_burst_ratio = 0.5;
  options.recurrence_fraction = 0.8;
  options.min_periods = 2;
  return options;
}

TEST(BurstDetectionTest, QuietTenantHasNoBursts) {
  IntervalSet activity;
  // One 30-minute blip per day — well under the 50% bin threshold.
  for (int d = 0; d < 28; ++d) {
    activity.Add(d * kDay + 9 * kHour, d * kDay + 9 * kHour + 30 * kMinute);
  }
  auto report = DetectRegularBursts(activity, 0, 28 * kDay, WeeklyOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_FALSE(report->HasRegularBursts());
  EXPECT_NEAR(report->baseline_ratio, 0.5 / 24, 1e-6);
}

TEST(BurstDetectionTest, WeeklyBurstDetectedWithCorrectPhase) {
  IntervalSet activity;
  // Every Friday (day 4 of the period), 12:00-18:00 fully active, for four
  // weeks; plus light background noise.
  for (int w = 0; w < 4; ++w) {
    SimTime friday = w * 7 * kDay + 4 * kDay;
    activity.Add(friday + 12 * kHour, friday + 18 * kHour);
  }
  auto report = DetectRegularBursts(activity, 0, 28 * kDay, WeeklyOptions());
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->windows.size(), 1u);
  const BurstWindow& window = report->windows[0];
  EXPECT_EQ(window.phase_begin, 4 * kDay + 12 * kHour);
  EXPECT_EQ(window.phase_end, 4 * kDay + 18 * kHour);
  EXPECT_NEAR(window.mean_ratio, 1.0, 1e-9);
}

TEST(BurstDetectionTest, IrregularBurstIsNotRegular) {
  IntervalSet activity;
  // A heavy block in week 2 only.
  activity.Add(7 * kDay + 2 * kDay, 7 * kDay + 2 * kDay + 12 * kHour);
  auto report = DetectRegularBursts(activity, 0, 28 * kDay, WeeklyOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->HasRegularBursts());
}

TEST(BurstDetectionTest, RecurrenceFractionToleratesOneMiss) {
  IntervalSet activity;
  // Burst in 4 of 5 weeks (80% recurrence, exactly the threshold).
  for (int w = 0; w < 5; ++w) {
    if (w == 2) continue;
    SimTime monday = w * 7 * kDay;
    activity.Add(monday + 6 * kHour, monday + 12 * kHour);
  }
  auto report = DetectRegularBursts(activity, 0, 35 * kDay, WeeklyOptions());
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->HasRegularBursts());
}

TEST(BurstDetectionTest, NextOccurrencePrediction) {
  BurstWindow window;
  window.phase_begin = 4 * kDay;
  window.phase_end = 4 * kDay + 6 * kHour;
  SimDuration period = 7 * kDay;
  // From day 2 of week 3, the next burst is day 4 of week 3.
  TimeInterval next = window.NextOccurrence(2 * 7 * kDay + 2 * kDay, period);
  EXPECT_EQ(next.begin, 2 * 7 * kDay + 4 * kDay);
  EXPECT_EQ(next.end, 2 * 7 * kDay + 4 * kDay + 6 * kHour);
  // From inside the window, the current occurrence is returned.
  TimeInterval current =
      window.NextOccurrence(2 * 7 * kDay + 4 * kDay + kHour, period);
  EXPECT_EQ(current.begin, 2 * 7 * kDay + 4 * kDay);
  // Just past it, next week's.
  TimeInterval after = window.NextOccurrence(
      2 * 7 * kDay + 4 * kDay + 6 * kHour, period);
  EXPECT_EQ(after.begin, 3 * 7 * kDay + 4 * kDay);
}

TEST(BurstDetectionTest, ValidatesInputs) {
  IntervalSet activity;
  activity.Add(0, kDay);
  BurstDetectorOptions options = WeeklyOptions();
  // Too little history.
  EXPECT_EQ(DetectRegularBursts(activity, 0, 10 * kDay, options)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  // Bin size not dividing the period.
  options.bin_size = 5 * kHour;
  EXPECT_EQ(DetectRegularBursts(activity, 0, 28 * kDay, options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  options = WeeklyOptions();
  options.period = 0;
  EXPECT_FALSE(DetectRegularBursts(activity, 0, 28 * kDay, options).ok());
  EXPECT_FALSE(DetectRegularBursts(activity, kDay, kDay, WeeklyOptions())
                   .ok());
}

TEST(BurstDetectionTest, PartialTrailingPeriodIgnored) {
  IntervalSet activity;
  for (int w = 0; w < 3; ++w) {
    SimTime monday = w * 7 * kDay;
    activity.Add(monday, monday + 6 * kHour);
  }
  // A huge blip in the trailing partial week must not affect detection.
  activity.Add(3 * 7 * kDay + kDay, 3 * 7 * kDay + 2 * kDay);
  auto report =
      DetectRegularBursts(activity, 0, 3 * 7 * kDay + 3 * kDay,
                          WeeklyOptions());
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->windows.size(), 1u);
  EXPECT_EQ(report->windows[0].phase_begin, 0);
}

}  // namespace
}  // namespace thrifty
