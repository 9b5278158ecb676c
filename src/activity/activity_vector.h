// Per-tenant epoch activity vectors (the A_i of §5).
//
// A tenant is active in epoch k if any of its queries is executing at some
// point during epoch k (the paper's strong notion of inactive: "as long as a
// tenant does not have any queries being executed by any MPPDB, that tenant
// is inactive at that moment").
//
// Activity is bursty (office-hour blocks), so the packed bitmap is stored
// sparsely: only 64-bit words containing at least one set bit are kept, as
// parallel (word index, word bits) arrays. All consumers — most importantly
// GroupLevelSet's candidate evaluation — iterate exactly these nonzero
// words, and at fine epoch sizes (the paper sweeps E down to 0.1 s, i.e.
// millions of epochs) the sparse form is ~8x smaller than a full bitmap.

#ifndef THRIFTY_ACTIVITY_ACTIVITY_VECTOR_H_
#define THRIFTY_ACTIVITY_ACTIVITY_VECTOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "activity/epoch.h"
#include "common/bitmap.h"
#include "common/interval.h"
#include "workload/query_log.h"

namespace thrifty {

/// \brief Sparse activity bitmap of one tenant: bit k set iff active in
/// epoch k.
class ActivityVector {
 public:
  ActivityVector() = default;

  /// \brief Compresses a full bitmap into sparse form.
  static ActivityVector FromBitmap(TenantId tenant_id,
                                   const DynamicBitmap& bits);

  /// \brief Adopts already-sparse word storage (ascending word indices
  /// below ceil(num_epochs/64), every word nonzero) — the zero-copy sink of
  /// the streamed epochization pipeline (activity/streamed_epochizer.h).
  static ActivityVector FromWords(TenantId tenant_id, size_t num_epochs,
                                  std::vector<uint32_t> word_indices,
                                  std::vector<uint64_t> word_bits);

  TenantId tenant_id() const { return tenant_id_; }
  size_t num_epochs() const { return num_epochs_; }

  /// \brief Number of epochs in which the tenant is active.
  size_t ActiveEpochs() const { return active_epochs_; }

  /// \brief ActiveEpochs() / num_epochs().
  double ActiveRatio() const {
    return num_epochs_ == 0 ? 0
                            : static_cast<double>(active_epochs_) /
                                  static_cast<double>(num_epochs_);
  }

  /// \brief Indices of 64-bit words containing set bits, ascending.
  const std::vector<uint32_t>& word_indices() const { return word_indices_; }

  /// \brief Word contents, parallel to word_indices().
  const std::vector<uint64_t>& word_bits() const { return word_bits_; }

  /// \brief Whether epoch k is active (binary search; for tests/small use).
  bool Get(size_t k) const;

  /// \brief Expands back to a full bitmap.
  DynamicBitmap ToBitmap() const;

 private:
  TenantId tenant_id_ = kInvalidTenantId;
  size_t num_epochs_ = 0;
  size_t active_epochs_ = 0;
  std::vector<uint32_t> word_indices_;
  std::vector<uint64_t> word_bits_;
};

/// \brief Builds the activity vector of one tenant log (streamed, no dense
/// intermediate).
ActivityVector MakeActivityVector(const TenantLog& log,
                                  const EpochConfig& epochs);

/// \brief Everything the planner reads of one tenant's history, derived
/// once per log change instead of once per solve.
struct TenantActivity {
  /// TenantLog::ActivityIntervals(), unclipped (burst screening reads it).
  IntervalSet intervals;
  /// `intervals` epochized over the index's grid (empty if it is invalid).
  ActivityVector epochs;
  /// Share of the grid's [begin, end) covered by `intervals` — bit-equal to
  /// TenantLog::ActiveRatio over that window (same CoveredFraction).
  double active_ratio = 0;
};

/// \brief Derives `log`'s activity over the grid `epochs`.
TenantActivity MakeTenantActivity(const TenantLog& log,
                                  const EpochConfig& epochs);

/// \brief Per-tenant activity over one epoch grid. Consumers only look
/// tenants up, never iterate, so no output depends on the map's order.
struct ActivityIndex {
  EpochConfig epochs;
  std::unordered_map<TenantId, TenantActivity> tenants;
};

/// \brief Indexes every log (a repeated tenant id keeps its last log).
ActivityIndex MakeActivityIndex(const std::vector<TenantLog>& logs,
                                const EpochConfig& epochs);

}  // namespace thrifty

#endif  // THRIFTY_ACTIVITY_ACTIVITY_VECTOR_H_
