// Run-time TTP (RT-TTP) tracking (§5.1).
//
// At run time a tenant-group's activity may deviate from history. The
// Tenant Activity Monitor watches, per group, the step function "number of
// concurrently active tenants" over a sliding window (the paper uses 24
// hours) and computes the RT-TTP: the fraction of that window during which
// at most R tenants were active. When RT-TTP drops below the SLA guarantee
// P, elastic scaling takes action.

#ifndef THRIFTY_SCALING_RT_TTP_MONITOR_H_
#define THRIFTY_SCALING_RT_TTP_MONITOR_H_

#include <deque>

#include "common/sim_time.h"

namespace thrifty {

/// \brief Sliding-window RT-TTP of one tenant-group.
///
/// Time before the first recorded change counts as zero active tenants.
/// Each kept segment carries the time spent above R before it, so a query
/// is two binary searches over the kept segments rather than a sweep.
class RtTtpMonitor {
 public:
  /// \param r replication factor (the count threshold).
  /// \param window sliding window length (default 24 h).
  explicit RtTtpMonitor(int r, SimDuration window = 24 * kHour);

  int r() const { return r_; }
  SimDuration window() const { return window_; }

  /// \brief Records that the group's active-tenant count changed at `now`.
  ///
  /// Calls must be in non-decreasing time order.
  void OnActiveCountChange(SimTime now, int count);

  /// \brief Active-tenant count right now.
  int current_count() const;

  /// \brief Fraction of [now - window, now) with count <= r. Returns 1 for
  /// an empty window (now <= 0 history counts as inactive).
  double RtTtp(SimTime now) const;

 private:
  struct Segment {
    SimTime since;
    int count;
    /// Time with count > r from the first recorded change up to `since`.
    SimDuration above_before;
  };

  /// \brief Time with count > r from the first recorded change up to `t`.
  /// Before the front segment it is the front's `above_before`, so that a
  /// difference over a window only counts time the kept segments cover.
  SimDuration AboveUntil(SimTime t) const;

  /// \brief AboveUntil(t) for a `t` at or after `seg.since` and before the
  /// next segment.
  SimDuration AboveWithin(const Segment& seg, SimTime t) const;

  /// \brief Drops segments that ended before `horizon` (keeps the one
  /// straddling it).
  void Prune(SimTime horizon);

  int r_;
  SimDuration window_;
  std::deque<Segment> segments_;
};

}  // namespace thrifty

#endif  // THRIFTY_SCALING_RT_TTP_MONITOR_H_
