#include "scaling/rt_ttp_monitor.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace thrifty {
namespace {

// Reference RT-TTP: keeps every change and sweeps the segments overlapping
// the window, as the monitor did before it carried above-R prefix sums.
class SweepReference {
 public:
  explicit SweepReference(SimDuration window) : window_(window) {}

  void OnActiveCountChange(SimTime now, int count) {
    if (!segments_.empty() && segments_.back().since == now) {
      segments_.back().count = count;
    } else {
      segments_.push_back({now, count});
    }
  }

  /// Fraction of [now - window, now) with count > threshold.
  double FractionAbove(SimTime now, int threshold) const {
    SimTime begin = now - window_;
    SimDuration above = 0;
    for (size_t i = 0; i < segments_.size(); ++i) {
      SimTime seg_begin = std::max(segments_[i].since, begin);
      SimTime seg_end =
          i + 1 < segments_.size() ? segments_[i + 1].since : now;
      seg_end = std::min(seg_end, now);
      if (seg_end <= seg_begin) continue;
      if (segments_[i].count > threshold) above += seg_end - seg_begin;
    }
    return static_cast<double>(above) / static_cast<double>(window_);
  }

 private:
  struct Segment {
    SimTime since;
    int count;
  };
  SimDuration window_;
  std::vector<Segment> segments_;
};

TEST(RtTtpTest, NoActivityIsPerfect) {
  RtTtpMonitor monitor(3);
  EXPECT_DOUBLE_EQ(monitor.RtTtp(25 * kHour), 1.0);
  EXPECT_EQ(monitor.current_count(), 0);
}

TEST(RtTtpTest, CountsWithinThresholdKeepTtpAtOne) {
  RtTtpMonitor monitor(3);
  monitor.OnActiveCountChange(1 * kHour, 2);
  monitor.OnActiveCountChange(2 * kHour, 3);
  monitor.OnActiveCountChange(3 * kHour, 0);
  EXPECT_DOUBLE_EQ(monitor.RtTtp(25 * kHour), 1.0);
}

TEST(RtTtpTest, TimeAboveThresholdReducesTtp) {
  RtTtpMonitor monitor(3, 24 * kHour);
  monitor.OnActiveCountChange(0, 4);            // above R
  monitor.OnActiveCountChange(6 * kHour, 2);    // back below
  // At now = 24 h: 6 of 24 hours above -> RT-TTP = 75%.
  EXPECT_NEAR(monitor.RtTtp(24 * kHour), 0.75, 1e-9);
}

TEST(RtTtpTest, SlidingWindowForgetsOldBreaches) {
  RtTtpMonitor monitor(3, 24 * kHour);
  monitor.OnActiveCountChange(0, 5);
  monitor.OnActiveCountChange(1 * kHour, 1);
  // Breach fully inside window at t = 24 h.
  EXPECT_NEAR(monitor.RtTtp(24 * kHour), 23.0 / 24, 1e-9);
  // Half slid out at t = 24.5 h.
  EXPECT_NEAR(monitor.RtTtp(24 * kHour + 30 * kMinute), 23.5 / 24, 1e-9);
  // Fully slid out at t = 25 h.
  EXPECT_NEAR(monitor.RtTtp(25 * kHour), 1.0, 1e-9);
}

TEST(RtTtpTest, OngoingBreachCountsUpToNow) {
  RtTtpMonitor monitor(1, 10 * kHour);
  monitor.OnActiveCountChange(0, 2);
  // Still above threshold; at t = 5 h half the window (with pre-history as
  // zero) is above.
  EXPECT_NEAR(monitor.RtTtp(5 * kHour), 0.5, 1e-9);
  EXPECT_EQ(monitor.current_count(), 2);
}

TEST(RtTtpTest, FractionAboveGeneralThreshold) {
  // The same history against R = 0, 1, 2: the time above R shrinks.
  const double expected_above[] = {0.4, 0.2, 0.0};
  for (int r = 0; r <= 2; ++r) {
    RtTtpMonitor monitor(r, 10 * kHour);
    monitor.OnActiveCountChange(0, 1);
    monitor.OnActiveCountChange(2 * kHour, 2);
    monitor.OnActiveCountChange(4 * kHour, 0);
    EXPECT_NEAR(monitor.RtTtp(10 * kHour), 1.0 - expected_above[r], 1e-9)
        << "r " << r;
  }
}

TEST(RtTtpTest, RedundantUpdatesCollapse) {
  RtTtpMonitor monitor(2, 10 * kHour);
  monitor.OnActiveCountChange(1 * kHour, 3);
  monitor.OnActiveCountChange(2 * kHour, 3);  // no change
  monitor.OnActiveCountChange(3 * kHour, 1);
  EXPECT_NEAR(monitor.RtTtp(10 * kHour), 0.8, 1e-9);
}

TEST(RtTtpTest, SameTimestampRewrite) {
  RtTtpMonitor monitor(2, 10 * kHour);
  monitor.OnActiveCountChange(1 * kHour, 3);
  monitor.OnActiveCountChange(1 * kHour, 1);  // transition at same instant
  EXPECT_NEAR(monitor.RtTtp(10 * kHour), 1.0, 1e-9);
  EXPECT_EQ(monitor.current_count(), 1);
}

TEST(RtTtpTest, PruningKeepsStraddlingSegment) {
  RtTtpMonitor monitor(0, 1 * kHour);
  // A long-past segment that still covers the window start must survive.
  monitor.OnActiveCountChange(0, 1);
  for (int h = 1; h <= 50; ++h) {
    monitor.OnActiveCountChange(h * kHour, h % 2 == 0 ? 1 : 2);
  }
  // Whole window above threshold 0 regardless of pruning.
  EXPECT_NEAR(monitor.RtTtp(50 * kHour + 30 * kMinute), 0.0, 1e-9);
}

TEST(RtTtpTest, FrontSegmentCarriesPrunedHistory) {
  RtTtpMonitor monitor(1, 10 * kHour);
  monitor.OnActiveCountChange(0, 3);           // above R for 5 h
  monitor.OnActiveCountChange(5 * kHour, 0);
  monitor.OnActiveCountChange(30 * kHour, 2);  // prunes the first segment
  monitor.OnActiveCountChange(31 * kHour, 0);
  // The segment from 5 h straddles the prune horizon 21 h and is kept as
  // the front; it carries the pruned 5 h above R.
  EXPECT_NEAR(monitor.RtTtp(32 * kHour), 0.9, 1e-9);
  EXPECT_NEAR(monitor.RtTtp(45 * kHour), 1.0, 1e-9);
  // A window reaching back before the front counts no time before it: the
  // pruned breach is forgotten, not charged to [2 h, 12 h).
  EXPECT_NEAR(monitor.RtTtp(12 * kHour), 1.0, 1e-9);
}

// Property: RtTtp equals 1 minus the reference sweep, bit for bit, on
// random histories with same-time rewrites, no-op changes that collapse,
// and enough elapsed time for pruning. A query is compared when it falls
// at or after the latest change (what the service asks), or while the
// whole history fits in one window so nothing was pruned; that covers
// windows starting before the first segment, windows inside the history
// and queries long after the last change.
TEST(RtTtpTest, MatchesSweepReferenceBitForBit) {
  Rng rng(2513);
  // Compared queries per kind: before the history, at or after the last
  // change, inside the history.
  size_t compared[3] = {0, 0, 0};
  for (int trial = 0; trial < 1000; ++trial) {
    const int r = static_cast<int>(rng.NextInt(0, 3));
    const SimDuration window = rng.NextInt(1, 6) * kHour;
    RtTtpMonitor monitor(r, window);
    SweepReference reference(window);
    const SimTime first = rng.NextInt(0, 3) * kHour;
    SimTime now = first;
    auto check = [&](int kind, SimTime at) {
      // Before the last change, pruning may have dropped what the window
      // needs once the history spans a window.
      if (at < now && now - first >= window) return;
      const double got = monitor.RtTtp(at);
      const double want = 1.0 - reference.FractionAbove(at, r);
      ASSERT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
          << "trial " << trial << " at " << at << ": " << got << " vs "
          << want;
      ++compared[kind];
    };
    for (int op = 0; op < 60; ++op) {
      const double u = rng.NextDouble();
      if (u < 0.15) {
        // Same-time rewrite (possibly back to the previous count).
        const int count = static_cast<int>(rng.NextInt(0, 5));
        monitor.OnActiveCountChange(now, count);
        reference.OnActiveCountChange(now, count);
      } else if (u < 0.6) {
        now += rng.NextInt(0, 90) * kMinute + rng.NextInt(0, 999);
        const int count = static_cast<int>(rng.NextInt(0, 5));
        monitor.OnActiveCountChange(now, count);
        reference.OnActiveCountChange(now, count);
        ASSERT_EQ(monitor.current_count(), count);
      } else if (u < 0.7) {
        check(0, first - rng.NextInt(0, 2 * window));  // before the history
      } else if (u < 0.8) {
        // At the last change, or up to three windows after it.
        check(1, now + rng.NextInt(0, 3) * window);
      } else {
        check(2, now - rng.NextInt(0, window));  // a window inside the history
      }
    }
  }
  for (size_t kind_compared : compared) EXPECT_GT(kind_compared, 1000u);
}

TEST(RtTtpTest, ThePaper43MinuteGracePeriodExample) {
  // §5.1: at P = 99.9%, one month gives ~43 minutes of grace period.
  double month_ms = 30.0 * kDay;
  double grace_minutes = month_ms * 0.001 / kMinute;
  EXPECT_NEAR(grace_minutes, 43.2, 0.5);
}

}  // namespace
}  // namespace thrifty
