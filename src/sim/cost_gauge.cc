#include "sim/cost_gauge.h"

namespace thrifty {

void SimCostGauge::RecordCompletionEvent(uint64_t queries_touched) {
  completion_events_.fetch_add(1, std::memory_order_relaxed);
  queries_touched_.fetch_add(queries_touched, std::memory_order_relaxed);
}

void SimCostGauge::RecordSubmit(uint64_t queries_touched) {
  submits_.fetch_add(1, std::memory_order_relaxed);
  queries_touched_.fetch_add(queries_touched, std::memory_order_relaxed);
}

void SimCostGauge::RecordRunningSetSize(size_t size) {
  size_t peak = peak_running_set_.load(std::memory_order_relaxed);
  while (size > peak && !peak_running_set_.compare_exchange_weak(
                            peak, size, std::memory_order_relaxed)) {
  }
}

double SimCostGauge::TouchedPerEvent() const {
  uint64_t events = completion_events() + submits();
  if (events == 0) return 0;
  return static_cast<double>(queries_touched()) / static_cast<double>(events);
}

}  // namespace thrifty
