#include "scaling/rt_ttp_monitor.h"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace thrifty {

RtTtpMonitor::RtTtpMonitor(int r, SimDuration window)
    : r_(r), window_(window) {
  assert(r >= 0);
  assert(window > 0);
}

void RtTtpMonitor::OnActiveCountChange(SimTime now, int count) {
  assert(segments_.empty() || now >= segments_.back().since);
  if (!segments_.empty() && segments_.back().since == now) {
    // A rewrite keeps the segment's start, so its above_before still holds.
    segments_.back().count = count;
    // Collapse a no-op rewrite into the previous segment.
    if (segments_.size() >= 2 &&
        segments_[segments_.size() - 2].count == count) {
      segments_.pop_back();
    }
    return;
  }
  if (!segments_.empty() && segments_.back().count == count) return;
  const SimDuration above =
      segments_.empty() ? 0 : AboveWithin(segments_.back(), now);
  segments_.push_back({now, count, above});
  Prune(now - window_);
}

int RtTtpMonitor::current_count() const {
  return segments_.empty() ? 0 : segments_.back().count;
}

SimDuration RtTtpMonitor::AboveUntil(SimTime t) const {
  // The last segment starting at or before t; none if t precedes them all.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](SimTime time, const Segment& seg) { return time < seg.since; });
  if (it == segments_.begin()) {
    return segments_.empty() ? 0 : segments_.front().above_before;
  }
  return AboveWithin(*std::prev(it), t);
}

SimDuration RtTtpMonitor::AboveWithin(const Segment& seg, SimTime t) const {
  return seg.above_before + (seg.count > r_ ? t - seg.since : 0);
}

double RtTtpMonitor::RtTtp(SimTime now) const {
  const SimDuration above = AboveUntil(now) - AboveUntil(now - window_);
  return 1.0 - static_cast<double>(above) / static_cast<double>(window_);
}

void RtTtpMonitor::Prune(SimTime horizon) {
  // Keep at least one segment starting at or before the horizon so the
  // straddling portion remains computable.
  while (segments_.size() >= 2 && segments_[1].since <= horizon) {
    segments_.pop_front();
  }
}

}  // namespace thrifty
