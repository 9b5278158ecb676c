#include "activity/burst_detection.h"

#include <algorithm>
#include <cmath>

namespace thrifty {

TimeInterval BurstWindow::NextOccurrence(SimTime now,
                                         SimDuration period) const {
  // The k-th occurrence covers [k*period + phase_begin, k*period +
  // phase_end). Find the first one ending after `now`.
  SimTime k = now / period;
  while (k * period + phase_end <= now) ++k;
  return {k * period + phase_begin, k * period + phase_end};
}

Result<BurstReport> DetectRegularBursts(const IntervalSet& activity,
                                        SimTime history_begin,
                                        SimTime history_end,
                                        const BurstDetectorOptions& options) {
  if (options.period <= 0 || options.bin_size <= 0 ||
      options.bin_size > options.period) {
    return Status::InvalidArgument("invalid period/bin size");
  }
  if (options.period % options.bin_size != 0) {
    return Status::InvalidArgument("bin size must divide the period");
  }
  if (history_end <= history_begin) {
    return Status::InvalidArgument("empty history window");
  }
  int num_periods =
      static_cast<int>((history_end - history_begin) / options.period);
  if (num_periods < options.min_periods) {
    return Status::FailedPrecondition(
        "history covers " + std::to_string(num_periods) +
        " full periods, need " + std::to_string(options.min_periods));
  }

  const size_t bins_per_period =
      static_cast<size_t>(options.period / options.bin_size);

  BurstReport report;
  SimTime analyzed_end =
      history_begin + static_cast<SimTime>(num_periods) * options.period;
  IntervalSet clipped = activity.Clip(history_begin, analyzed_end);
  report.baseline_ratio =
      static_cast<double>(clipped.TotalLength()) /
      static_cast<double>(analyzed_end - history_begin);

  // Per (period, bin) activity ratio.
  std::vector<std::vector<double>> ratios(
      static_cast<size_t>(num_periods),
      std::vector<double>(bins_per_period, 0));
  for (int p = 0; p < num_periods; ++p) {
    for (size_t b = 0; b < bins_per_period; ++b) {
      SimTime begin = history_begin + p * options.period +
                      static_cast<SimTime>(b) * options.bin_size;
      SimTime end = begin + options.bin_size;
      ratios[static_cast<size_t>(p)][b] =
          static_cast<double>(clipped.Clip(begin, end).TotalLength()) /
          static_cast<double>(options.bin_size);
    }
  }

  double threshold = std::max(report.baseline_ratio * options.burst_factor,
                              options.min_burst_ratio);
  // A bin is a regular burst when it exceeds the threshold in at least
  // recurrence_fraction of the periods.
  std::vector<bool> bursty(bins_per_period, false);
  std::vector<double> bin_means(bins_per_period, 0);
  for (size_t b = 0; b < bins_per_period; ++b) {
    int hits = 0;
    double sum = 0;
    for (int p = 0; p < num_periods; ++p) {
      double r = ratios[static_cast<size_t>(p)][b];
      sum += r;
      hits += r > threshold ? 1 : 0;
    }
    bin_means[b] = sum / num_periods;
    bursty[b] = static_cast<double>(hits) / num_periods + 1e-12 >=
                options.recurrence_fraction;
  }

  // Coalesce consecutive bursty bins into windows.
  size_t b = 0;
  while (b < bins_per_period) {
    if (!bursty[b]) {
      ++b;
      continue;
    }
    size_t end = b;
    double sum = 0;
    while (end < bins_per_period && bursty[end]) {
      sum += bin_means[end];
      ++end;
    }
    BurstWindow window;
    window.phase_begin = static_cast<SimDuration>(b) * options.bin_size;
    window.phase_end = static_cast<SimDuration>(end) * options.bin_size;
    window.mean_ratio = sum / static_cast<double>(end - b);
    report.windows.push_back(window);
    b = end;
  }
  return report;
}

}  // namespace thrifty
