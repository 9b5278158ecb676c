#include "common/interval.h"

#include <algorithm>

namespace thrifty {

IntervalSet::IntervalSet(std::vector<TimeInterval> intervals)
    : intervals_(std::move(intervals)), normalized_(false) {
  intervals_.erase(
      std::remove_if(intervals_.begin(), intervals_.end(),
                     [](const TimeInterval& iv) { return iv.empty(); }),
      intervals_.end());
}

void IntervalSet::Add(SimTime begin, SimTime end) {
  if (end <= begin) return;
  // Common case: appending in time order onto an already-normalized set.
  if (normalized_ && !intervals_.empty() && intervals_.back().end < begin) {
    intervals_.push_back({begin, end});
    return;
  }
  if (normalized_ && !intervals_.empty() && begin >= intervals_.back().begin &&
      begin <= intervals_.back().end) {
    intervals_.back().end = std::max(intervals_.back().end, end);
    return;
  }
  intervals_.push_back({begin, end});
  if (intervals_.size() > 1) normalized_ = false;
}

void IntervalSet::Union(const IntervalSet& other) {
  for (const auto& iv : other.intervals()) Add(iv);
}

SimDuration IntervalSet::TotalLength() const {
  Normalize();
  SimDuration total = 0;
  for (const auto& iv : intervals_) total += iv.length();
  return total;
}

bool IntervalSet::Contains(SimTime t) const {
  Normalize();
  // First interval with end > t could contain t.
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), t,
      [](SimTime v, const TimeInterval& iv) { return v < iv.end; });
  return it != intervals_.end() && it->Contains(t);
}

bool IntervalSet::OverlapsRange(SimTime begin, SimTime end) const {
  if (end <= begin) return false;
  Normalize();
  auto it = std::upper_bound(
      intervals_.begin(), intervals_.end(), begin,
      [](SimTime v, const TimeInterval& iv) { return v < iv.end; });
  return it != intervals_.end() && it->begin < end;
}

const std::vector<TimeInterval>& IntervalSet::intervals() const {
  Normalize();
  return intervals_;
}

IntervalSet IntervalSet::Clip(SimTime begin, SimTime end) const {
  Normalize();
  IntervalSet out;
  for (const auto& iv : intervals_) {
    if (iv.end <= begin) continue;
    if (iv.begin >= end) break;
    out.Add(std::max(iv.begin, begin), std::min(iv.end, end));
  }
  return out;
}

double IntervalSet::CoveredFraction(SimTime begin, SimTime end) const {
  if (end <= begin) return 0;
  return static_cast<double>(Clip(begin, end).TotalLength()) /
         static_cast<double>(end - begin);
}

IntervalSet IntervalSet::Shift(SimDuration offset) const {
  Normalize();
  IntervalSet out;
  for (const auto& iv : intervals_) out.Add(iv.begin + offset, iv.end + offset);
  return out;
}

bool IntervalSet::empty() const {
  Normalize();
  return intervals_.empty();
}

void IntervalSet::Normalize() const {
  if (normalized_) return;
  std::sort(intervals_.begin(), intervals_.end(),
            [](const TimeInterval& a, const TimeInterval& b) {
              return a.begin < b.begin || (a.begin == b.begin && a.end < b.end);
            });
  std::vector<TimeInterval> merged;
  merged.reserve(intervals_.size());
  for (const auto& iv : intervals_) {
    if (iv.empty()) continue;
    if (!merged.empty() && iv.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  }
  intervals_ = std::move(merged);
  normalized_ = true;
}

}  // namespace thrifty
