// Half-open time intervals and normalized interval sets.
//
// Tenant activity is fundamentally a set of [query start, query end)
// intervals; epoch bitmaps (activity/activity_vector.h) are a discretized
// view of these sets.

#ifndef THRIFTY_COMMON_INTERVAL_H_
#define THRIFTY_COMMON_INTERVAL_H_

#include <vector>

#include "common/sim_time.h"

namespace thrifty {

/// \brief Half-open interval [begin, end) in simulated time.
struct TimeInterval {
  SimTime begin = 0;
  SimTime end = 0;

  SimDuration length() const { return end - begin; }
  bool empty() const { return end <= begin; }
  bool Contains(SimTime t) const { return t >= begin && t < end; }
  bool Overlaps(const TimeInterval& other) const {
    return begin < other.end && other.begin < end;
  }

  bool operator==(const TimeInterval& other) const = default;
};

/// \brief A set of disjoint, sorted, non-empty half-open intervals.
///
/// Arbitrary (overlapping, unsorted) intervals may be added; the set
/// normalizes lazily. Adjacent intervals ([a,b) and [b,c)) are coalesced.
class IntervalSet {
 public:
  IntervalSet() = default;
  explicit IntervalSet(std::vector<TimeInterval> intervals);

  /// \brief Adds one interval (empty intervals are ignored).
  void Add(SimTime begin, SimTime end);
  void Add(const TimeInterval& iv) { Add(iv.begin, iv.end); }

  /// \brief Adds every interval of `other`.
  void Union(const IntervalSet& other);

  /// \brief Total covered duration.
  SimDuration TotalLength() const;

  /// \brief True if `t` lies in some interval.
  bool Contains(SimTime t) const;

  /// \brief True if [begin, end) overlaps any interval of the set.
  bool OverlapsRange(SimTime begin, SimTime end) const;

  /// \brief The normalized (sorted, disjoint, coalesced) intervals.
  const std::vector<TimeInterval>& intervals() const;

  /// \brief Restricts the set to [begin, end), clipping boundary intervals.
  IntervalSet Clip(SimTime begin, SimTime end) const;

  /// \brief Fraction of [begin, end) the set covers (0 for an empty
  /// window) — TenantLog::ActiveRatio and TenantActivity::active_ratio
  /// both measure through it, so the two agree bit for bit.
  double CoveredFraction(SimTime begin, SimTime end) const;

  /// \brief Returns a copy with every interval shifted by `offset`.
  IntervalSet Shift(SimDuration offset) const;

  bool empty() const;
  size_t size() const { return intervals().size(); }

 private:
  void Normalize() const;

  mutable std::vector<TimeInterval> intervals_;
  mutable bool normalized_ = true;
};

}  // namespace thrifty

#endif  // THRIFTY_COMMON_INTERVAL_H_
