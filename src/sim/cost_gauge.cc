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

void SimCostGauge::RecordSlotWork(uint64_t query_work_ms,
                                  uint64_t slot_work_ms) {
  query_work_ms_.fetch_add(query_work_ms, std::memory_order_relaxed);
  slot_work_ms_.fetch_add(slot_work_ms, std::memory_order_relaxed);
}

void SimCostGauge::RecordBatchOpen() {
  shared_batches_.fetch_add(1, std::memory_order_relaxed);
}

void SimCostGauge::RecordBatchJoin() {
  shared_joins_.fetch_add(1, std::memory_order_relaxed);
}

double SimCostGauge::SharedWorkRatio() const {
  uint64_t slot = slot_work_ms();
  if (slot == 0) return 1.0;
  return static_cast<double>(query_work_ms()) / static_cast<double>(slot);
}

double SimCostGauge::SharedHitRate() const {
  uint64_t total = shared_batches() + shared_joins();
  if (total == 0) return 0.0;
  return static_cast<double>(shared_joins()) / static_cast<double>(total);
}

double SimCostGauge::TouchedPerEvent() const {
  uint64_t events = completion_events() + submits();
  if (events == 0) return 0;
  return static_cast<double>(queries_touched()) / static_cast<double>(events);
}

}  // namespace thrifty
