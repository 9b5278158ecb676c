// Sparse/dense equivalence for GroupLevelSet: a randomized property test
// driving Add/Remove/EvaluateAdd/Ttp/ExactLevelFractions against a dense
// per-epoch-count reference, including all-zero vectors, single-epoch
// horizons, and word-boundary (bit 63/64) activity — plus the pruned
// EvaluateAddCompare against the canonical CompareCandidateLevels order,
// and one word -> column table (ColumnLookup) reused across every kind of
// group mutation.

#include "activity/level_set.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "placement/two_step.h"

namespace thrifty {
namespace {

/// Dense reference: the group as a plain per-epoch active-tenant count
/// array, with every query recomputed by brute force.
class DenseReference {
 public:
  explicit DenseReference(size_t num_epochs) : counts_(num_epochs, 0) {}

  void Add(const ActivityVector& v) {
    for (size_t k = 0; k < counts_.size(); ++k) counts_[k] += v.Get(k) ? 1 : 0;
  }

  void Remove(const ActivityVector& v) {
    for (size_t k = 0; k < counts_.size(); ++k) counts_[k] -= v.Get(k) ? 1 : 0;
  }

  int MaxActive() const {
    int max_count = 0;
    for (int c : counts_) max_count = std::max(max_count, c);
    return max_count;
  }

  size_t CountAtLeast(int m) const {
    size_t total = 0;
    for (int c : counts_) total += c >= m ? 1 : 0;
    return total;
  }

  size_t CountAtMost(int m) const {
    size_t total = 0;
    for (int c : counts_) total += c <= m ? 1 : 0;
    return total;
  }

  double Ttp(int r) const {
    if (counts_.empty()) return 1.0;
    return static_cast<double>(CountAtMost(r)) /
           static_cast<double>(counts_.size());
  }

  std::vector<double> ExactLevelFractions() const {
    std::vector<double> fractions(static_cast<size_t>(MaxActive()));
    for (size_t m = 1; m <= fractions.size(); ++m) {
      size_t exact = 0;
      for (int c : counts_) exact += c == static_cast<int>(m) ? 1 : 0;
      fractions[m - 1] =
          static_cast<double>(exact) / static_cast<double>(counts_.size());
    }
    return fractions;
  }

  /// The would-be EvaluateAdd popcounts of adding `v`.
  std::vector<size_t> EvaluateAdd(const ActivityVector& v) const {
    std::vector<int> would_be(counts_);
    int max_count = 0;
    for (size_t k = 0; k < counts_.size(); ++k) {
      would_be[k] += v.Get(k) ? 1 : 0;
      max_count = std::max(max_count, would_be[k]);
    }
    std::vector<size_t> pops(static_cast<size_t>(max_count), 0);
    for (int c : would_be) {
      for (int m = 1; m <= c; ++m) ++pops[static_cast<size_t>(m) - 1];
    }
    return pops;
  }

 private:
  std::vector<int> counts_;
};

/// A pool of bursty vectors, always including an all-zero vector and a
/// word-boundary vector with activity exactly at bits 63 and 64.
std::vector<ActivityVector> MakePool(size_t num_epochs, Rng* rng) {
  std::vector<ActivityVector> pool;
  for (TenantId id = 0; id < 10; ++id) {
    DynamicBitmap bits(num_epochs);
    int runs = static_cast<int>(rng->NextInt(0, 4));
    for (int r = 0; r < runs; ++r) {
      size_t begin = rng->NextBounded(num_epochs);
      bits.SetRange(begin, begin + 1 + rng->NextBounded(num_epochs / 3 + 1));
    }
    pool.push_back(ActivityVector::FromBitmap(id, bits));
  }
  DynamicBitmap zero(num_epochs);
  pool.push_back(ActivityVector::FromBitmap(100, zero));
  if (num_epochs > 64) {
    DynamicBitmap boundary(num_epochs);
    boundary.Set(63);
    boundary.Set(64);
    pool.push_back(ActivityVector::FromBitmap(101, boundary));
  }
  return pool;
}

void ExpectMatchesReference(const GroupLevelSet& g, const DenseReference& ref,
                            size_t num_epochs) {
  int max_active = ref.MaxActive();
  ASSERT_EQ(g.MaxActive(), max_active);
  for (int m = 1; m <= max_active + 1; ++m) {
    ASSERT_EQ(g.CountAtLeast(m), ref.CountAtLeast(m)) << "level " << m;
  }
  for (int r = 0; r <= max_active; ++r) {
    ASSERT_EQ(g.CountAtMost(r), ref.CountAtMost(r)) << "r " << r;
    ASSERT_DOUBLE_EQ(g.Ttp(r), ref.Ttp(r)) << "r " << r;
  }
  ASSERT_EQ(g.ExactLevelFractions(), ref.ExactLevelFractions());
  // The sparse storage never exceeds its own dense-bitmap equivalent.
  ASSERT_LE(g.touched_words(), (num_epochs + 63) / 64);
}

class SparseDenseEquivalence : public ::testing::TestWithParam<size_t> {};

TEST_P(SparseDenseEquivalence, RandomAddsRemovesAndEvaluations) {
  const size_t num_epochs = GetParam();
  Rng rng(num_epochs * 6151 + 3);
  for (int trial = 0; trial < 8; ++trial) {
    auto pool = MakePool(num_epochs, &rng);
    GroupLevelSet g(num_epochs);
    DenseReference ref(num_epochs);
    std::vector<bool> in_group(pool.size(), false);
    GroupLevelSet::ColumnLookup lookup;
    GroupLevelSet::EvalScratch scratch;

    for (int op = 0; op < 50; ++op) {
      size_t pick = rng.NextBounded(pool.size());
      if (!in_group[pick]) {
        // EvaluateAdd (allocating and scratch-reusing forms) must agree
        // with the dense reference *before* the mutation...
        std::vector<size_t> expected = ref.EvaluateAdd(pool[pick]);
        ASSERT_EQ(g.EvaluateAdd(pool[pick]), expected);
        lookup.Sync(g);
        g.EvaluateAddInto(pool[pick], lookup, &scratch);
        ASSERT_EQ(scratch.pops, expected);
        // ...and match the actual post-add state.
        g.Add(pool[pick]);
        ref.Add(pool[pick]);
        ASSERT_EQ(g.level_popcounts(), expected);
        in_group[pick] = true;
      } else {
        ASSERT_TRUE(g.Remove(pool[pick]).ok());
        ref.Remove(pool[pick]);
        in_group[pick] = false;
      }
      ExpectMatchesReference(g, ref, num_epochs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EpochCounts, SparseDenseEquivalence,
                         ::testing::Values(1, 10, 63, 64, 65, 128, 1000));

/// The level at which the Fig 5.3 order separates `a` from `b` (the highest
/// level whose exact counts differ), or 0 on a full tie.
size_t DecisiveLevel(const std::vector<size_t>& a,
                     const std::vector<size_t>& b) {
  for (size_t m = std::max(a.size(), b.size()); m >= 1; --m) {
    auto exact = [m](const std::vector<size_t>& p) {
      return (m <= p.size() ? p[m - 1] : 0) - (m < p.size() ? p[m] : 0);
    };
    if (exact(a) != exact(b)) return m;
  }
  return 0;
}

/// The pruned compare must agree with EvaluateAdd + CompareCandidateLevels
/// for every candidate/incumbent pair of `pool`, and fill the identical
/// popcount vector whenever it reports a win or tie. Records each pair's
/// (sign, decisive level) into `outcomes` when given.
void ExpectComparesMatchCanonicalOrder(
    const GroupLevelSet& g, const std::vector<ActivityVector>& pool,
    GroupLevelSet::ColumnLookup* lookup, GroupLevelSet::EvalScratch* scratch,
    std::set<std::pair<int, size_t>>* outcomes = nullptr) {
  lookup->Sync(g);
  for (const auto& incumbent_v : pool) {
    const std::vector<size_t> incumbent = g.EvaluateAdd(incumbent_v);
    if (incumbent.empty()) continue;  // caller handles empty incumbents
    for (const auto& cand : pool) {
      const std::vector<size_t> full = g.EvaluateAdd(cand);
      const int want = CompareCandidateLevels(full, incumbent);
      const int got = g.EvaluateAddCompare(cand, incumbent, *lookup, scratch);
      ASSERT_EQ(got < 0, want < 0);
      ASSERT_EQ(got > 0, want > 0);
      if (got <= 0) {
        ASSERT_EQ(scratch->pops, full);
      }
      if (outcomes != nullptr) {
        outcomes->insert({(want > 0) - (want < 0),
                          DecisiveLevel(full, incumbent)});
      }
    }
  }
}

TEST(SparseLevelSetTest, EvaluateAddCompareMatchesCanonicalOrder) {
  for (size_t num_epochs : {10u, 64u, 200u, 1000u}) {
    Rng rng(num_epochs * 31337 + 11);
    for (int trial = 0; trial < 6; ++trial) {
      auto pool = MakePool(num_epochs, &rng);
      GroupLevelSet g(num_epochs);
      int members = static_cast<int>(rng.NextInt(1, 6));
      for (int t = 0; t < members; ++t) {
        g.Add(pool[rng.NextBounded(pool.size())]);
      }
      GroupLevelSet::ColumnLookup lookup;
      GroupLevelSet::EvalScratch scratch;
      ASSERT_NO_FATAL_FAILURE(
          ExpectComparesMatchCanonicalOrder(g, pool, &lookup, &scratch));
    }
  }
}

/// An activity vector active exactly on the half-open epoch `runs`.
ActivityVector Runs(TenantId id, size_t num_epochs,
                    const std::vector<std::pair<size_t, size_t>>& runs) {
  DynamicBitmap bits(num_epochs);
  for (const auto& [begin, end] : runs) bits.SetRange(begin, end);
  return ActivityVector::FromBitmap(id, bits);
}

// With M = MaxActive() >= 2 the compare first screens levels M+1 and M from
// the candidate's tall columns alone and builds the full plan only when the
// screen does not reject. Directed groups (M = 0..3) and candidates placed
// on columns of every height — inside and outside the touched index — hit
// each way a compare can end: lost or won at M+1, lost or won at M, decided
// below M (after falling through the screen), and a full tie.
TEST(SparseLevelSetTest, ScreenedCompareMatchesCanonicalOrderAtEveryDepth) {
  const size_t num_epochs = 640;
  // Counts: [0,100) 1, [100,150) 2, [150,200) 3, [200,250) 2, [250,300) 1
  // once all three are in.
  const std::vector<ActivityVector> members = {
      Runs(1, num_epochs, {{0, 200}}),
      Runs(2, num_epochs, {{100, 300}}),
      Runs(3, num_epochs, {{150, 250}}),
  };
  const std::vector<ActivityVector> pool = {
      Runs(10, num_epochs, {{150, 160}}),
      Runs(11, num_epochs, {{150, 155}}),
      Runs(12, num_epochs, {{120, 130}}),
      Runs(13, num_epochs, {{120, 125}}),
      Runs(14, num_epochs, {{200, 250}}),
      Runs(15, num_epochs, {{200, 220}}),
      Runs(16, num_epochs, {{260, 290}}),
      Runs(17, num_epochs, {{400, 450}}),
      Runs(18, num_epochs, {{400, 420}}),
      Runs(19, num_epochs, {{50, 60}, {400, 410}}),
      Runs(20, num_epochs, {{50, 60}, {400, 420}}),
      Runs(21, num_epochs, {}),
  };
  GroupLevelSet::ColumnLookup lookup;
  GroupLevelSet::EvalScratch scratch;
  for (size_t size = 0; size <= members.size(); ++size) {
    GroupLevelSet g(num_epochs);
    for (size_t i = 0; i < size; ++i) g.Add(members[i]);
    const size_t top = static_cast<size_t>(g.MaxActive());
    ASSERT_EQ(top, size);
    SCOPED_TRACE(testing::Message() << "M " << top);
    std::set<std::pair<int, size_t>> outcomes;
    ASSERT_NO_FATAL_FAILURE(ExpectComparesMatchCanonicalOrder(
        g, pool, &lookup, &scratch, &outcomes));
    if (top >= 2) {
      // Every depth, keyed by (sign, decisive level relative to M).
      std::set<std::pair<int, std::string>> seen;
      for (const auto& [sign, level] : outcomes) {
        seen.insert({sign, level == 0         ? "tie"
                           : level == top + 1 ? "M+1"
                           : level == top     ? "M"
                                              : "below"});
      }
      const std::set<std::pair<int, std::string>> every = {
          {1, "M+1"}, {-1, "M+1"}, {1, "M"},     {-1, "M"},
          {1, "below"}, {-1, "below"}, {0, "tie"}};
      EXPECT_EQ(seen, every);
    }
  }
}

/// Every evaluation entry point (one-shot and through a lookup), for every
/// pool vector as candidate (and as incumbent for the compare), against the
/// dense reference — through the caller's shared lookup and scratch, synced
/// first.
void ExpectEvaluationsMatch(const GroupLevelSet& g, const DenseReference& ref,
                            const std::vector<ActivityVector>& pool,
                            GroupLevelSet::ColumnLookup* lookup,
                            GroupLevelSet::EvalScratch* scratch) {
  lookup->Sync(g);
  for (const auto& cand : pool) {
    const std::vector<size_t> expected = ref.EvaluateAdd(cand);
    ASSERT_EQ(g.EvaluateAdd(cand), expected);
    g.EvaluateAddInto(cand, scratch);
    ASSERT_EQ(scratch->pops, expected);
    g.EvaluateAddInto(cand, *lookup, scratch);
    ASSERT_EQ(scratch->pops, expected);
    for (const auto& incumbent_v : pool) {
      const std::vector<size_t> incumbent = ref.EvaluateAdd(incumbent_v);
      if (incumbent.empty()) continue;
      const int want = CompareCandidateLevels(expected, incumbent);
      const int got = g.EvaluateAddCompare(cand, incumbent, *lookup, scratch);
      ASSERT_EQ(got < 0, want < 0);
      ASSERT_EQ(got > 0, want > 0);
      if (got <= 0) {
        ASSERT_EQ(scratch->pops, expected);
      }
    }
  }
}

// One lookup and one scratch serve a group through adds (which insert
// columns mid-index and shift positions), removes, a drain to empty and a
// refill (which rebuilds the touched index), and then a second group built
// at the same address. A table that missed any of these state changes would
// resolve candidate words to the wrong columns and fail the comparison.
TEST(SparseLevelSetTest, ColumnLookupFollowsEveryMutation) {
  for (size_t num_epochs : {64u, 200u, 1000u}) {
    Rng rng(num_epochs * 7919 + 5);
    auto pool = MakePool(num_epochs, &rng);
    GroupLevelSet::ColumnLookup lookup;
    GroupLevelSet::EvalScratch scratch;
    std::optional<GroupLevelSet> g(std::in_place, num_epochs);
    DenseReference ref(num_epochs);
    auto expect_match = [&](const DenseReference& reference) {
      ExpectEvaluationsMatch(*g, reference, pool, &lookup, &scratch);
    };
    ASSERT_NO_FATAL_FAILURE(expect_match(ref));

    // Adds in pool order, the sparse engine against the reference.
    const size_t half = pool.size() / 2;
    for (size_t i = 0; i < half; ++i) {
      g->Add(pool[i]);
      ref.Add(pool[i]);
      ASSERT_NO_FATAL_FAILURE(expect_match(ref));
    }
    // Removes, leaving one member.
    for (size_t i = 1; i < half; ++i) {
      ASSERT_TRUE(g->Remove(pool[i]).ok());
      ref.Remove(pool[i]);
      ASSERT_NO_FATAL_FAILURE(expect_match(ref));
    }
    // Drain to empty, then refill from the other half of the pool.
    ASSERT_TRUE(g->Remove(pool[0]).ok());
    ref.Remove(pool[0]);
    ASSERT_EQ(g->touched_words(), 0u);
    ASSERT_NO_FATAL_FAILURE(expect_match(ref));
    for (size_t i = pool.size(); i-- > half;) {
      g->Add(pool[i]);
      ref.Add(pool[i]);
      ASSERT_NO_FATAL_FAILURE(expect_match(ref));
    }

    // A second group in the same storage, with different members.
    const GroupLevelSet* address = &*g;
    g.reset();
    g.emplace(num_epochs);
    ASSERT_EQ(&*g, address);
    DenseReference second(num_epochs);
    for (size_t i = 1; i < pool.size(); i += 2) {
      g->Add(pool[i]);
      second.Add(pool[i]);
    }
    ASSERT_NO_FATAL_FAILURE(expect_match(second));
  }
}

// A lookup that is not synced to the group's current state — never synced,
// synced before the latest mutation, or synced to another group of the
// same horizon — aborts the evaluation instead of resolving words to stale
// columns.
TEST(SparseLevelSetDeathTest, StaleColumnLookupAborts) {
  const size_t num_epochs = 1000;
  std::vector<ActivityVector> pool;
  for (TenantId id = 0; id < 3; ++id) {
    DynamicBitmap bits(num_epochs);
    bits.SetRange(100 * id, 100 * id + 300);
    pool.push_back(ActivityVector::FromBitmap(id, bits));
  }
  GroupLevelSet g(num_epochs);
  GroupLevelSet other(num_epochs);
  g.Add(pool[0]);
  other.Add(pool[0]);
  GroupLevelSet::EvalScratch scratch;
  const std::vector<size_t> incumbent = g.EvaluateAdd(pool[1]);
  ASSERT_FALSE(incumbent.empty());

  GroupLevelSet::ColumnLookup never_synced;
  EXPECT_DEATH(g.EvaluateAddInto(pool[1], never_synced, &scratch),
               "not synced");
  GroupLevelSet::ColumnLookup before_add;
  before_add.Sync(g);
  g.Add(pool[2]);
  EXPECT_DEATH(g.EvaluateAddInto(pool[1], before_add, &scratch),
               "not synced");
  GroupLevelSet::ColumnLookup of_other;
  of_other.Sync(other);
  EXPECT_DEATH(g.EvaluateAddCompare(pool[1], incumbent, of_other, &scratch),
               "not synced");
}

TEST(SparseLevelSetTest, MemoryBytesShrinkForSparseActivity) {
  // 10 bursty tenants over a wide horizon: the touched index covers a small
  // fraction of the words, so the sparse footprint must undercut the dense
  // equivalent by a wide margin.
  const size_t num_epochs = 1 << 16;
  GroupLevelSet g(num_epochs);
  for (TenantId id = 0; id < 10; ++id) {
    DynamicBitmap bits(num_epochs);
    bits.SetRange(1000 + 64 * static_cast<size_t>(id), 1200);
    g.Add(ActivityVector::FromBitmap(id, bits));
  }
  EXPECT_GT(g.MaxActive(), 1);
  EXPECT_LT(g.MemoryBytes() * 4, g.DenseEquivalentBytes());
  EXPECT_EQ(g.DenseEquivalentBytes(),
            static_cast<size_t>(g.MaxActive()) * (num_epochs / 64) * 8 +
                static_cast<size_t>(g.MaxActive()) * sizeof(size_t));
}

TEST(SparseLevelSetTest, TouchedIndexRebuildsAfterDrain) {
  GroupLevelSet g(256);
  DynamicBitmap wide(256);
  wide.SetRange(0, 200);
  ActivityVector v = ActivityVector::FromBitmap(1, wide);
  g.Add(v);
  EXPECT_EQ(g.touched_words(), 4u);
  ASSERT_TRUE(g.Remove(v).ok());
  EXPECT_EQ(g.touched_words(), 0u);
  DynamicBitmap narrow(256);
  narrow.Set(255);
  g.Add(ActivityVector::FromBitmap(2, narrow));
  EXPECT_EQ(g.touched_words(), 1u);
  EXPECT_EQ(g.CountAtLeast(1), 1u);
}

}  // namespace
}  // namespace thrifty
