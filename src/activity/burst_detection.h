// Regular-burst tenant detection (§5.1).
//
// "Finally, tenants with regular bursts in tenant activity (e.g., there are
// usually bursts near the end of a fiscal year) could be identified by
// Thrifty's regular activity monitoring and they would be excluded from
// consolidation before the bursts arrive."
//
// A tenant has a *regular burst* when, at the same phase of successive
// calendar periods (week, month, quarter), its activity is consistently far
// above its own baseline. The detector folds the tenant's activity history
// onto a period, compares per-phase-bin activity against the tenant's
// baseline ratio, and reports bins that exceed the threshold in (almost)
// every period. The Deployment Advisor can then exclude such tenants ahead
// of their next predicted burst window.

#ifndef THRIFTY_ACTIVITY_BURST_DETECTION_H_
#define THRIFTY_ACTIVITY_BURST_DETECTION_H_

#include <vector>

#include "common/interval.h"
#include "common/result.h"

namespace thrifty {

/// \brief Burst-detector configuration.
struct BurstDetectorOptions {
  /// Calendar period the history is folded onto (e.g., 7 days for weekly
  /// patterns, 30 days for month-end bursts).
  SimDuration period = 7 * kDay;
  /// Resolution of the folded profile.
  SimDuration bin_size = 1 * kHour;
  /// A bin bursts when its activity ratio exceeds
  /// max(baseline x burst_factor, min_burst_ratio).
  double burst_factor = 3.0;
  double min_burst_ratio = 0.5;
  /// Fraction of periods in which a bin must burst to count as *regular*.
  double recurrence_fraction = 0.8;
  /// Minimum full periods of history required.
  int min_periods = 2;
};

/// \brief One recurring burst window within the period.
struct BurstWindow {
  /// Offset of the window within the period (phase), half-open.
  SimDuration phase_begin = 0;
  SimDuration phase_end = 0;
  /// Mean activity ratio inside the window across periods.
  double mean_ratio = 0;

  /// \brief Next occurrence of this window at or after `now`.
  TimeInterval NextOccurrence(SimTime now, SimDuration period) const;
};

/// \brief Detection result for one tenant.
struct BurstReport {
  /// The tenant's overall active ratio over the analyzed history.
  double baseline_ratio = 0;
  /// Recurring burst windows, sorted by phase (empty = no regular bursts).
  std::vector<BurstWindow> windows;

  bool HasRegularBursts() const { return !windows.empty(); }
};

/// \brief Analyzes a tenant's activity history for regular bursts.
///
/// \param activity the tenant's active intervals.
/// \param history_begin/end the analyzed window; must cover at least
///        options.min_periods full periods.
Result<BurstReport> DetectRegularBursts(
    const IntervalSet& activity, SimTime history_begin, SimTime history_end,
    const BurstDetectorOptions& options = BurstDetectorOptions());

}  // namespace thrifty

#endif  // THRIFTY_ACTIVITY_BURST_DETECTION_H_
