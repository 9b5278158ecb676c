// Group-level activity algebra: the data structure behind tenant grouping.
//
// A tenant-group's packing state is the per-epoch count of active tenants
// (the sum-of-activity-vectors of §5). GroupLevelSet represents that count
// vector as *level bitmaps*: L_m has bit k set iff at least m tenants are
// active in epoch k. This makes the two operations the two-step heuristic
// needs extremely cheap:
//
//  * TTP(R) — the total time percentage with <= R active tenants — is
//    1 - popcount(L_{R+1}) / d.
//
//  * Evaluating "what happens if tenant C joins?" is pure word-parallel
//    boolean algebra: the new L'_m = L_m | (L_{m-1} & C), and only C's
//    nonzero words can change. A scan of many candidates against one group
//    state resolves each of C's words to its column by one lookup in a
//    word -> column table (ColumnLookup, synced once per group state and
//    shared by every candidate scanned against it), independent of both
//    the horizon and the group's touched index. The argmin compare is
//    decided top-down, and the top two levels read only C's words in tall
//    columns, so most candidates are rejected after one lookup pass over
//    C's words plus word operations on that tall share alone; only a
//    candidate that survives them pays the full O(levels x |C's nonzero
//    words|) evaluation. This is what keeps the O(g^2)-search heuristic
//    fast at thousands of tenants. A one-shot evaluation (no table) merges
//    C's words with the touched index instead, O(touched + |C's nonzero
//    words|), which is cheaper than syncing a table for a single candidate.
//
// Storage is *sparse over the touched-word index*: every level can only
// have set bits inside words where at least one member is active, so the
// levels are stored as word columns over the sorted union of the members'
// nonzero word indices instead of as full d-bit bitmaps. Tenant activity is
// bursty (office-hour blocks), so at fine epoch sizes (the paper sweeps E
// down to 0.1 s — millions of epochs) the touched set is a small fraction
// of the horizon and the footprint shrinks accordingly. Add and Remove
// cost O(touched + candidate words) (column starts shift). The touched
// index never shrinks on Remove (it stays an upper bound) and is rebuilt
// only when the group drains to zero activity.
//
// Levels are nested (L_m is a subset of L_{m-1}), so within one touched
// column the nonzero level words form a *prefix*: if level m's word is
// nonzero, so is level m-1's. The columns are therefore stored ragged in a
// single column-major arena — column p holds only its nonzero prefix of
// `height(p)` words — rather than as an L x touched matrix. High levels
// are nonzero only where many members overlap, which is rare, so the arena
// is far smaller than the matrix while any (level, column) word is still
// one bounds-check away.

#ifndef THRIFTY_ACTIVITY_LEVEL_SET_H_
#define THRIFTY_ACTIVITY_LEVEL_SET_H_

#include <cstdint>
#include <vector>

#include "activity/activity_vector.h"
#include "common/bitmap.h"
#include "common/simd.h"
#include "common/status.h"

namespace thrifty {

/// \brief Per-epoch active-tenant counts of one tenant-group, as level
/// bitmaps stored sparsely over the group's touched-word index.
class GroupLevelSet {
 public:
  explicit GroupLevelSet(size_t num_epochs);

  size_t num_epochs() const { return num_epochs_; }
  int num_tenants() const { return num_tenants_; }

  /// \brief Adds a tenant's activity to the group.
  void Add(const ActivityVector& v);

  /// \brief Removes a tenant's activity. The caller must only remove
  /// vectors previously added (the structure stores counts, not members).
  Status Remove(const ActivityVector& v);

  /// \brief Number of epochs with >= m active tenants (m >= 1).
  size_t CountAtLeast(int m) const;

  /// \brief Number of epochs with <= m active tenants (m >= 0) — the
  /// COUNT^{<=R} of §5.
  size_t CountAtMost(int m) const;

  /// \brief Total time percentage (as a fraction in [0,1]) with <= r active
  /// tenants: the TTP of §5.
  double Ttp(int r) const;

  /// \brief Highest number of concurrently active tenants over all epochs.
  int MaxActive() const { return static_cast<int>(pops_.size()); }

  /// \brief Fraction of epochs with exactly m active tenants, for
  /// m = 1..MaxActive() (index 0 holds m=1).
  std::vector<double> ExactLevelFractions() const;

  /// \brief Word -> column table for one group state: entry w locates the
  /// touched column of horizon word w in the column arena (start, height);
  /// a word outside the touched index reads as an empty column, which is
  /// exactly how it evaluates. It turns finding a candidate's columns into
  /// one O(1) lookup per candidate word. The table holds ceil(d/64) entries
  /// of 8 bytes — horizon-sized — so it lives with the scan, not in the
  /// group: the two-step growth loop syncs one table per growth step and
  /// hands it read-only to every scan shard. Syncing costs O(touched) and
  /// pays off only when many candidates are scanned against one state;
  /// solvers that evaluate one candidate per state (FFD, the exact search)
  /// use the table-free one-shot forms. The groups themselves stay sparse
  /// (MemoryBytes() excludes the table).
  class ColumnLookup {
   public:
    /// \brief Points the table at `group`'s current state. A no-op when it
    /// already is; otherwise clears the previously filled entries and fills
    /// the group's touched index — O(previous + current touched words).
    /// Only a change of horizon costs O(d/64) (the table is re-allocated).
    void Sync(const GroupLevelSet& group);

   private:
    friend class GroupLevelSet;
    /// One column's nonzero level prefix: arena_[start, start + height).
    struct Span {
      uint32_t start = 0;
      uint32_t height = 0;
    };
    /// Per horizon word: its column, or an empty Span outside the index.
    std::vector<Span> column_;
    /// The words whose entry is filled (the synced touched index).
    std::vector<uint32_t> filled_;
    /// Stamp of the synced group state; 0 is never issued.
    uint64_t stamp_ = 0;
  };

  /// \brief Reusable scratch state for allocation-free candidate
  /// evaluation: the would-be popcount vector plus a bump-pointer arena
  /// holding the per-candidate evaluation plan (the candidate's columns and
  /// the lazily gathered level rows the SIMD kernels consume — see
  /// EvalPlan and EvalCore in level_set.cc). One instance per
  /// scanning thread; the arena is Reset() per plan (a compare may build
  /// two: the screen's, then the full one) and retains its block, so the
  /// argmin inner loop performs no heap allocation and its working set
  /// stays cache-resident.
  struct EvalScratch {
    /// Would-be level popcounts, in the EvaluateAdd layout.
    std::vector<size_t> pops;
    /// Lowest level the last evaluation computed: the `pops` entries of
    /// levels >= lowest_filled are exact, those below it are unset. 1 after
    /// a complete evaluation; a compare abandoned at level m leaves m.
    /// Every evaluation computes level MaxActive()+1, so a caller can always
    /// read the would-be top count, and the level below it exactly when
    /// lowest_filled <= MaxActive(). A zero entry never means "unset".
    size_t lowest_filled = 1;
    /// Backing store for the evaluation plans, reset per plan.
    EvalArena arena;
  };

  /// \brief Evaluates adding `v` without mutating the group.
  ///
  /// Returns the would-be popcounts of levels 1..MaxActive()+1 (the last
  /// entry is the possibly-new top level). Entry m-1 is the number of epochs
  /// that would have >= m active tenants. One-shot: resolves v's words by
  /// merging them with the touched index, O(touched + |v's nonzero words|).
  std::vector<size_t> EvaluateAdd(const ActivityVector& v) const;

  /// \brief One-shot EvaluateAdd into `scratch->pops`, reusing its
  /// buffers.
  void EvaluateAddInto(const ActivityVector& v, EvalScratch* scratch) const;

  /// \brief EvaluateAddInto with v's words resolved through `lookup`,
  /// O(|v's nonzero words|) — the form for scanning many candidates against
  /// one group state. `lookup` must be synced to this group's current state
  /// (aborts otherwise).
  void EvaluateAddInto(const ActivityVector& v, const ColumnLookup& lookup,
                       EvalScratch* scratch) const;

  /// \brief Pruned EvaluateAdd-and-compare against an incumbent outcome.
  ///
  /// Computes the would-be level popcounts top-down and compares them
  /// against `incumbent` under the Fig 5.3 total order (exact-level counts
  /// from the highest level downward — CompareCandidateLevels in
  /// placement/two_step.h is the canonical definition). Returns negative if
  /// adding `v` is the strictly better (smaller) outcome, positive if
  /// strictly worse, 0 on a full tie. As soon as a level strictly exceeds
  /// the incumbent's the evaluation is abandoned — the pruning that keeps
  /// the argmin cheap — so `scratch->pops` is complete (and equal to
  /// EvaluateAdd) only when the result is <= 0; `scratch->lowest_filled`
  /// tells which top levels a pruned compare did fill.
  ///
  /// Cost: with M = MaxActive() >= 2, a screen first decides levels M+1 and
  /// M from only v's words whose column is at least M-1 tall (the only
  /// columns those levels read): one lookup per word of v, then work in the
  /// tall words alone. Most losers are rejected there. A candidate the
  /// screen does not reject (a tie or a win at both levels) is evaluated in
  /// full, O(levels x |v's nonzero words|). The verdict and the filled pops
  /// are exactly the unscreened evaluation's.
  ///
  /// `incumbent` must be an EvaluateAdd outcome against this same group
  /// state (so incumbent.size() <= MaxActive() + 1) and non-empty, and
  /// `lookup` must be synced to that state (aborts otherwise).
  int EvaluateAddCompare(const ActivityVector& v,
                         const std::vector<size_t>& incumbent,
                         const ColumnLookup& lookup,
                         EvalScratch* scratch) const;

  /// \brief TTP(r) computed from EvaluateAdd popcounts.
  double TtpFromPopcounts(const std::vector<size_t>& at_least_pops,
                          int r) const;

  /// \brief Level popcounts (epochs with >= m active), m = 1..MaxActive().
  const std::vector<size_t>& level_popcounts() const { return pops_; }

  /// \brief Words of the touched index (union of members' nonzero words).
  size_t touched_words() const { return touched_.size(); }

  /// \brief Bytes held by the sparse level storage (touched index plus the
  /// per-level word columns and cached popcounts), by element count.
  size_t MemoryBytes() const;

  /// \brief Bytes the same levels would occupy as dense full-horizon
  /// bitmaps (the pre-sparse representation): levels x ceil(d/64) words.
  size_t DenseEquivalentBytes() const;

 private:
  /// Merges `widx` into the touched index, inserting height-zero columns
  /// (the arena itself is unchanged — only the column starts shift), and
  /// writes each candidate word's touched position into `cand_pos`
  /// (parallel to `widx`).
  void MergeTouched(const std::vector<uint32_t>& widx,
                    std::vector<uint32_t>* cand_pos);

  /// The per-candidate evaluation plan: the candidate's columns sorted by
  /// stored height (descending), so each level's
  /// participating columns form a prefix, plus the lazily gathered
  /// contiguous level rows the SIMD kernels run over. All arrays live in
  /// the scratch arena. Defined in level_set.cc.
  struct EvalPlan;

  /// Builds `plan` for evaluating `v` against this group: resolves each
  /// candidate word to its column — through `lookup` when given, else by
  /// merging with the touched index — and keeps the words whose column is
  /// at least `floor` tall; the plan serves the levels above `floor`. A
  /// full plan (floor 0) counting-sorts the words by column height; a
  /// floored one keeps word order (see EvalPlan in level_set.cc).
  /// O(|v's nonzero words| + tallest column), plus O(touched) without a
  /// lookup.
  void BuildPlan(const ActivityVector& v, const ColumnLookup* lookup,
                 uint32_t floor, EvalScratch* scratch, EvalPlan* plan) const;

  /// Shared body of EvaluateAddInto / EvaluateAddCompare: computes the
  /// would-be level popcounts of the levels above `floor`, top-down, into
  /// scratch->pops (level rows gathered lazily, bodies run through the
  /// simd:: kernels). With a non-null `incumbent` it additionally compares
  /// exact-level counts under the Fig 5.3 total order, returning +1 as soon
  /// as a level is strictly worse (pops left incomplete) and -1/0
  /// otherwise; with a null incumbent it returns 0. Pops are complete only
  /// at floor 0 and a result <= 0; scratch->lowest_filled records the
  /// lowest level computed either way.
  int EvalCore(const ActivityVector& v, const ColumnLookup* lookup,
               const std::vector<size_t>* incumbent, uint32_t floor,
               EvalScratch* scratch) const;

  /// Rewrites the candidate columns listed in `cand_pos` (sorted) with the
  /// ragged new columns in `new_words` (`new_first[j]`/`new_heights[j]`
  /// delimit column j's words), recompacting the arena and column starts.
  void SpliceColumns(const std::vector<uint32_t>& cand_pos,
                     const std::vector<uint64_t>& new_words,
                     const std::vector<uint32_t>& new_first,
                     const std::vector<uint32_t>& new_heights);

  size_t num_epochs_;
  /// Unique per state: reissued by every Add and Remove, so a ColumnLookup
  /// synced to an earlier state (or to another group) is never mistaken
  /// for a current one.
  uint64_t stamp_;
  int num_tenants_ = 0;
  /// Sorted word indices where any member has activity.
  std::vector<uint32_t> touched_;
  /// Column p's nonzero level prefix lives at
  /// arena_[col_start_[p] .. col_start_[p+1]): entry i is level i+1's word.
  /// col_start_ has touched_.size()+1 entries (empty when touched_ is).
  std::vector<uint32_t> col_start_;
  std::vector<uint64_t> arena_;
  std::vector<size_t> pops_;  // cached popcount per level
};

}  // namespace thrifty

#endif  // THRIFTY_ACTIVITY_LEVEL_SET_H_
