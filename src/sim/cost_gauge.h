// Per-event cost metering for the discrete-event simulator core.

#ifndef THRIFTY_SIM_COST_GAUGE_H_
#define THRIFTY_SIM_COST_GAUGE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace thrifty {

/// \brief Counts the work the processor-sharing executor does per simulator
/// event: completion events fired, admissions handled, query records touched
/// (read, written, or moved) while handling each, and the peak running-set
/// size.
///
/// Attach one to a SimEngine (SimEngine::set_cost_gauge) and every
/// MppdbInstance driven by that engine charges to it. The virtual-time
/// executor touches O(log k) records per event where the dense test oracle
/// (tests/oracles/dense_executor.h) touches O(k) — the gauge is how tests
/// prove that, so touches are counted as actual record reads/moves, not
/// asymptotic claims.
///
/// Thread-safe (relaxed atomics): parallel bench trials each use their own
/// engine + gauge, but nothing breaks if one gauge is shared.
class SimCostGauge {
 public:
  /// \brief One completion event handled, touching `queries_touched`
  /// running-query records (min scan + completion collection + reschedule).
  void RecordCompletionEvent(uint64_t queries_touched);

  /// \brief One admission handled, touching `queries_touched` records
  /// (insert + sift or min rescan).
  void RecordSubmit(uint64_t queries_touched);

  /// \brief Samples the running-set size after a structural change.
  void RecordRunningSetSize(size_t size);

  uint64_t completion_events() const {
    return completion_events_.load(std::memory_order_relaxed);
  }
  uint64_t submits() const { return submits_.load(std::memory_order_relaxed); }
  uint64_t queries_touched() const {
    return queries_touched_.load(std::memory_order_relaxed);
  }
  size_t peak_running_set() const {
    return peak_running_set_.load(std::memory_order_relaxed);
  }

  /// \brief Mean records touched per executor event (submits + completions);
  /// 0 when nothing was recorded.
  double TouchedPerEvent() const;

 private:
  std::atomic<uint64_t> completion_events_{0};
  std::atomic<uint64_t> submits_{0};
  std::atomic<uint64_t> queries_touched_{0};
  std::atomic<size_t> peak_running_set_{0};
};

}  // namespace thrifty

#endif  // THRIFTY_SIM_COST_GAUGE_H_
