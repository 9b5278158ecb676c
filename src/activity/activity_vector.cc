#include "activity/activity_vector.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "activity/streamed_epochizer.h"
#include "common/simd.h"

namespace thrifty {

ActivityVector ActivityVector::FromBitmap(TenantId tenant_id,
                                          const DynamicBitmap& bits) {
  ActivityVector v;
  v.tenant_id_ = tenant_id;
  v.num_epochs_ = bits.num_bits();
  for (size_t w = 0; w < bits.num_words(); ++w) {
    uint64_t word = bits.word(w);
    if (word != 0) {
      v.word_indices_.push_back(static_cast<uint32_t>(w));
      v.word_bits_.push_back(word);
    }
  }
  v.active_epochs_ = simd::SpanPopcount(v.word_bits_.data(),
                                        v.word_bits_.size());
  return v;
}

ActivityVector ActivityVector::FromWords(TenantId tenant_id,
                                         size_t num_epochs,
                                         std::vector<uint32_t> word_indices,
                                         std::vector<uint64_t> word_bits) {
  assert(word_indices.size() == word_bits.size());
  ActivityVector v;
  v.tenant_id_ = tenant_id;
  v.num_epochs_ = num_epochs;
  v.word_indices_ = std::move(word_indices);
  v.word_bits_ = std::move(word_bits);
  for (size_t i = 0; i < v.word_bits_.size(); ++i) {
    assert(v.word_bits_[i] != 0);
    assert(i == 0 || v.word_indices_[i - 1] < v.word_indices_[i]);
    // GroupLevelSet::ColumnLookup indexes its horizon table by word.
    assert(v.word_indices_[i] < (num_epochs + 63) / 64);
  }
  v.active_epochs_ = simd::SpanPopcount(v.word_bits_.data(),
                                        v.word_bits_.size());
  return v;
}

bool ActivityVector::Get(size_t k) const {
  uint32_t w = static_cast<uint32_t>(k >> 6);
  auto it = std::lower_bound(word_indices_.begin(), word_indices_.end(), w);
  if (it == word_indices_.end() || *it != w) return false;
  uint64_t word = word_bits_[static_cast<size_t>(it - word_indices_.begin())];
  return (word >> (k & 63)) & 1;
}

DynamicBitmap ActivityVector::ToBitmap() const {
  DynamicBitmap bits(num_epochs_);
  for (size_t i = 0; i < word_indices_.size(); ++i) {
    bits.mutable_word(word_indices_[i]) = word_bits_[i];
  }
  return bits;
}

ActivityVector MakeActivityVector(const TenantLog& log,
                                  const EpochConfig& epochs) {
  return EpochizeIntervals(log.tenant_id, log.ActivityIntervals(), epochs);
}

TenantActivity MakeTenantActivity(const TenantLog& log,
                                  const EpochConfig& epochs) {
  TenantActivity activity;
  activity.intervals = log.ActivityIntervals();
  // An invalid grid leaves `epochs` empty; the advisor rejects the grid.
  if (epochs.Valid()) {
    activity.epochs =
        EpochizeIntervals(log.tenant_id, activity.intervals, epochs);
  }
  activity.active_ratio =
      activity.intervals.CoveredFraction(epochs.begin, epochs.end);
  return activity;
}

ActivityIndex MakeActivityIndex(const std::vector<TenantLog>& logs,
                                const EpochConfig& epochs) {
  ActivityIndex index;
  index.epochs = epochs;
  for (const auto& log : logs) {
    index.tenants[log.tenant_id] = MakeTenantActivity(log, epochs);
  }
  return index;
}

}  // namespace thrifty
