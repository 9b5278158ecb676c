// Streamed interval -> sparse epochization (§5 discretization without the
// dense intermediate).
//
// The original pipeline discretized a tenant's activity intervals by
// materializing a d-bit DynamicBitmap (one bit per epoch) and then
// compressing it into the sparse ActivityVector form. At fine epoch sizes
// (the paper sweeps E down to 0.1 s, i.e. millions of epochs) that dense
// intermediate is pure waste: a bursty tenant touches a small fraction of
// the horizon, yet every tenant transiently allocates the full Θ(d) bitmap.
//
// StreamedEpochizer removes the intermediate entirely. It walks the
// tenant's normalized (sorted, disjoint) IntervalSet over the epoch grid
// and emits exactly the nonzero 64-bit activity words, in ascending word
// order, merging intervals that land in the same word on the fly. The key
// invariant making single-pass merging possible: for disjoint sorted
// intervals, interval i's last epoch is <= interval i+1's first epoch, so
// a pending word can only ever be extended by the *next* interval and is
// final as soon as the walk moves past it. Working state is O(1); the only
// allocation is the output itself.
//
// Consumers: ActivityVector construction (EpochizeIntervals and the
// MakeActivityVector* family), GroupLevelSet's touched-word index (which
// takes the sparse words as-is via ActivityVector::FromWords), and the
// runtime paths that epochize activity histories (deployment advisor,
// elastic scaler). The dense bitmap construction survives only as a test
// oracle (tests/oracles/dense_epochizer.h) that
// tests/epochize_property_test.cc cross-checks this pipeline against.

#ifndef THRIFTY_ACTIVITY_STREAMED_EPOCHIZER_H_
#define THRIFTY_ACTIVITY_STREAMED_EPOCHIZER_H_

#include <atomic>
#include <cstdint>

#include "activity/activity_vector.h"
#include "activity/epoch.h"
#include "common/interval.h"

namespace thrifty {

/// \brief Pull-style iterator over the nonzero activity words of one
/// tenant's interval set on an epoch grid.
///
/// Words come out in strictly ascending word-index order with nonzero bits;
/// no dense per-epoch storage is ever allocated. The interval set must
/// outlive the epochizer.
class StreamedEpochizer {
 public:
  StreamedEpochizer(const IntervalSet& intervals, const EpochConfig& epochs);

  /// \brief Advances to the next nonzero word.
  ///
  /// Returns false when the stream is exhausted (then never true again).
  bool Next(uint32_t* word_index, uint64_t* word_bits);

 private:
  /// Bits of word `w` covered by the current interval's epoch range.
  uint64_t WordMask(uint32_t w) const;

  const std::vector<TimeInterval>* intervals_;
  EpochConfig epochs_;
  size_t next_interval_ = 0;
  // Word currently being merged across adjacent intervals.
  bool has_pending_ = false;
  uint32_t pending_index_ = 0;
  uint64_t pending_bits_ = 0;
  // Epoch/word range of the interval currently being walked.
  bool in_range_ = false;
  size_t range_first_epoch_ = 0;
  size_t range_last_epoch_ = 0;
  uint32_t range_word_ = 0;
  uint32_t range_last_word_ = 0;
};

/// \brief High-water byte gauge for the epochization stage.
///
/// Thread-safe; one gauge per epochization pass records the peak bytes of
/// per-tenant working state (the streamed walker's O(1) state, against the
/// Θ(d) bitmap a dense discretization would hold) summed over concurrently
/// in-flight tenants. Scheduling-dependent, so the value belongs in
/// metrics, never in fingerprinted results.
class EpochizeGauge {
 public:
  void Acquire(size_t bytes);
  void Release(size_t bytes);
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

 private:
  std::atomic<size_t> current_{0};
  std::atomic<size_t> peak_{0};
};

/// \brief Builds one tenant's sparse activity vector straight from its
/// interval set, with no dense per-epoch intermediate.
///
/// If `gauge` is non-null, the walker's working-state bytes are charged to
/// it for the duration of the call.
ActivityVector EpochizeIntervals(TenantId tenant_id,
                                 const IntervalSet& intervals,
                                 const EpochConfig& epochs,
                                 EpochizeGauge* gauge = nullptr);

}  // namespace thrifty

#endif  // THRIFTY_ACTIVITY_STREAMED_EPOCHIZER_H_
