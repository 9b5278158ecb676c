#include "activity/streamed_epochizer.h"

#include <algorithm>
#include <cassert>

namespace thrifty {

StreamedEpochizer::StreamedEpochizer(const IntervalSet& intervals,
                                     const EpochConfig& epochs)
    : intervals_(&intervals.intervals()), epochs_(epochs) {
  assert(epochs.Valid());
}

uint64_t StreamedEpochizer::WordMask(uint32_t w) const {
  size_t lo = (w == range_first_epoch_ >> 6) ? (range_first_epoch_ & 63) : 0;
  size_t hi = (w == range_last_epoch_ >> 6) ? (range_last_epoch_ & 63) : 63;
  return (~uint64_t{0} >> (63 - hi)) & (~uint64_t{0} << lo);
}

bool StreamedEpochizer::Next(uint32_t* word_index, uint64_t* word_bits) {
  while (true) {
    if (in_range_) {
      uint32_t w = range_word_;
      uint64_t mask = WordMask(w);
      if (range_word_ == range_last_word_) {
        in_range_ = false;
      } else {
        ++range_word_;
      }
      if (has_pending_ && pending_index_ == w) {
        // Adjacent interval landing in the pending word: merge, the word
        // may still grow.
        pending_bits_ |= mask;
        continue;
      }
      // Ranges walk strictly forward, so a pending word behind `w` is
      // final: emit it and stash `w` as the new pending word.
      uint32_t out_index = pending_index_;
      uint64_t out_bits = pending_bits_;
      bool emit = has_pending_;
      pending_index_ = w;
      pending_bits_ = mask;
      has_pending_ = true;
      if (emit) {
        *word_index = out_index;
        *word_bits = out_bits;
        return true;
      }
      continue;
    }
    if (next_interval_ >= intervals_->size()) {
      if (has_pending_) {
        *word_index = pending_index_;
        *word_bits = pending_bits_;
        has_pending_ = false;
        return true;
      }
      return false;
    }
    const TimeInterval& iv = (*intervals_)[next_interval_++];
    SimTime begin = std::max(iv.begin, epochs_.begin);
    SimTime end = std::min(iv.end, epochs_.end);
    if (begin >= end) {
      if (iv.begin >= epochs_.end) {
        // Sorted intervals: everything further is past the grid too.
        next_interval_ = intervals_->size();
      }
      continue;
    }
    range_first_epoch_ = epochs_.EpochOf(begin);
    // end is exclusive; an interval touching an epoch boundary does not
    // occupy the next epoch.
    range_last_epoch_ = epochs_.EpochOf(end - 1);
    range_word_ = static_cast<uint32_t>(range_first_epoch_ >> 6);
    range_last_word_ = static_cast<uint32_t>(range_last_epoch_ >> 6);
    in_range_ = true;
  }
}

void EpochizeGauge::Acquire(size_t bytes) {
  size_t now =
      current_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  size_t peak = peak_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
}

void EpochizeGauge::Release(size_t bytes) {
  current_.fetch_sub(bytes, std::memory_order_relaxed);
}

ActivityVector EpochizeIntervals(TenantId tenant_id,
                                 const IntervalSet& intervals,
                                 const EpochConfig& epochs,
                                 EpochizeGauge* gauge) {
  if (gauge != nullptr) gauge->Acquire(sizeof(StreamedEpochizer));
  std::vector<uint32_t> word_indices;
  std::vector<uint64_t> word_bits;
  StreamedEpochizer stream(intervals, epochs);
  uint32_t index;
  uint64_t bits;
  while (stream.Next(&index, &bits)) {
    word_indices.push_back(index);
    word_bits.push_back(bits);
  }
  if (gauge != nullptr) gauge->Release(sizeof(StreamedEpochizer));
  return ActivityVector::FromWords(tenant_id, epochs.NumEpochs(),
                                   std::move(word_indices),
                                   std::move(word_bits));
}

}  // namespace thrifty
