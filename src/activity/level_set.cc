#include "activity/level_set.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "common/simd.h"

namespace thrifty {

namespace {
constexpr uint32_t kNoOldPos = std::numeric_limits<uint32_t>::max();

inline size_t Pop(uint64_t word) {
  return static_cast<size_t>(std::popcount(word));
}

/// A process-wide unique GroupLevelSet state stamp (never 0).
uint64_t NextStamp() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1);
}
}  // namespace

/// Candidate-evaluation plan over the candidate's columns.
///
/// Each candidate word is resolved to its column; a word outside the
/// touched index counts as a height-zero column, which evaluates exactly
/// like one (the candidate lifts it into level 1 and nowhere else).
///
/// A full plan (floor 0) holds the columns in *descending stored-height*
/// order, so the columns participating at level m — those with height
/// >= m-1 — are exactly the prefix [0, CntAt(m-1)), and within it the
/// sub-prefix [0, CntAt(m)) still has a stored word at level m while the
/// tail [CntAt(m), CntAt(m-1)) sits exactly one level above its column top
/// (old word zero). Level m's stored words across the prefix are gathered
/// once, on demand, into the contiguous `rows[m]`, which turns every level
/// body into a span kernel over parallel arrays (simd::OrAndPopcountDelta
/// and friends) instead of a ragged pointer chase.
///
/// A plan with a height floor f >= 1 holds only the columns at least f
/// tall — every column the levels above f read — and serves only those
/// levels. It skips the sort: the columns stay in candidate-word order,
/// every level's prefix is the whole plan, and a gathered row holds a zero
/// for each column shorter than its level. A zero old word is exactly how
/// such a column evaluates (it contributes pop(below & C), or nothing when
/// `below` is zero too), so the same level bodies serve both layouts. For
/// the screen's two levels the sort costs more than the padded words it
/// would spare the kernels (EXPERIMENTS.md, "Screen, then plan").
///
/// Reordering columns only permutes commutative integer sums, so every
/// popcount — and therefore every solver fingerprint — is unchanged.
struct GroupLevelSet::EvalPlan {
  uint64_t* cw = nullptr;        // candidate words
  uint32_t* cstart = nullptr;    // arena column starts, parallel to cw
  uint32_t* height = nullptr;    // column heights (floored plans only)
  uint32_t* cnt = nullptr;       // cnt[m] = #columns with h >= m (full plan)
  uint64_t** rows = nullptr;     // rows[m] = gathered level-m words
  uint32_t n = 0;                // kept word count
  uint32_t maxh = 0;             // tallest column

  /// Number of columns level m's bodies run over.
  uint32_t CntAt(size_t m) const {
    if (m > maxh) return 0;
    return height != nullptr ? n : cnt[m];
  }

  /// Gathers level m's stored words (m in [1, maxh]) on first use.
  const uint64_t* Row(size_t m, const std::vector<uint64_t>& arena,
                      EvalArena* scratch_arena) {
    uint64_t*& row = rows[m];
    if (row == nullptr) {
      const uint32_t count = CntAt(m);
      row = scratch_arena->Alloc<uint64_t>(count);
      if (height == nullptr) {
        for (uint32_t k = 0; k < count; ++k) {
          row[k] = arena[cstart[k] + m - 1];
        }
      } else {
        // Zero-padded: a column shorter than m reads its top word (always
        // in range, heights being >= 1) masked to zero.
        for (uint32_t k = 0; k < count; ++k) {
          const uint32_t h = height[k];
          const uint64_t top = arena[cstart[k] + std::min<size_t>(h, m) - 1];
          row[k] = h >= m ? top : 0;
        }
      }
    }
    return row;
  }
};

GroupLevelSet::GroupLevelSet(size_t num_epochs)
    : num_epochs_(num_epochs), stamp_(NextStamp()) {}

void GroupLevelSet::ColumnLookup::Sync(const GroupLevelSet& group) {
  if (stamp_ == group.stamp_) return;
  const size_t words = (group.num_epochs_ + 63) / 64;
  if (column_.size() != words) {
    column_.assign(words, Span{});
  } else {
    for (uint32_t w : filled_) column_[w] = Span{};
  }
  filled_ = group.touched_;
  const std::vector<uint32_t>& starts = group.col_start_;
  for (size_t p = 0; p < filled_.size(); ++p) {
    column_[filled_[p]] = Span{starts[p], starts[p + 1] - starts[p]};
  }
  stamp_ = group.stamp_;
}

void GroupLevelSet::MergeTouched(const std::vector<uint32_t>& widx,
                                 std::vector<uint32_t>* cand_pos) {
  cand_pos->resize(widx.size());
  std::vector<uint32_t> merged;
  merged.reserve(touched_.size() + widx.size());
  // For each merged column, the touched position it came from (or new).
  std::vector<uint32_t> old_pos;
  old_pos.reserve(touched_.size() + widx.size());
  size_t i = 0, j = 0;
  bool grew = false;
  while (i < touched_.size() || j < widx.size()) {
    uint32_t tw = i < touched_.size() ? touched_[i]
                                      : std::numeric_limits<uint32_t>::max();
    uint32_t cw = j < widx.size() ? widx[j]
                                  : std::numeric_limits<uint32_t>::max();
    if (tw < cw) {
      old_pos.push_back(static_cast<uint32_t>(i));
      merged.push_back(tw);
      ++i;
    } else if (cw < tw) {
      (*cand_pos)[j] = static_cast<uint32_t>(merged.size());
      old_pos.push_back(kNoOldPos);
      merged.push_back(cw);
      ++j;
      grew = true;
    } else {
      (*cand_pos)[j] = static_cast<uint32_t>(merged.size());
      old_pos.push_back(static_cast<uint32_t>(i));
      merged.push_back(tw);
      ++i;
      ++j;
    }
  }
  if (!grew) return;
  // The merge is stable over the old columns, so the arena's word order is
  // unchanged — new columns have height zero and only the starts shift.
  std::vector<uint32_t> starts(merged.size() + 1);
  uint32_t offset = 0;
  for (size_t k = 0; k < merged.size(); ++k) {
    starts[k] = offset;
    if (old_pos[k] != kNoOldPos) {
      offset += col_start_[old_pos[k] + 1] - col_start_[old_pos[k]];
    }
  }
  starts.back() = offset;
  col_start_ = std::move(starts);
  touched_ = std::move(merged);
}

void GroupLevelSet::BuildPlan(const ActivityVector& v,
                              const ColumnLookup* lookup, uint32_t floor,
                              EvalScratch* scratch, EvalPlan* plan) const {
  const auto& widx = v.word_indices();
  const auto& wbits = v.word_bits();
  const size_t W = widx.size();
  const size_t L = pops_.size();

  // One capacity reservation covers every Alloc of this plan's cycle,
  // so spans handed out below are never invalidated by growth. In 8-byte
  // words: the W-sized arrays take at most 3.5 W + 3 (two uint64 arrays and
  // three uint32 arrays), the per-level arrays at most 2 L + 4. The lazily
  // gathered rows take at most the whole column arena for a full plan, and
  // at most one zero-padded row of W words per level from `floor` to L for
  // a floored one.
  EvalArena& arena = scratch->arena;
  arena.Reset();
  const size_t rows_bound =
      floor == 0 ? arena_.size() : (L + 1 - floor) * W;
  arena.Reserve(4 * W + 2 * (L + 2) + rows_bound + 16);

  // Pass 1: each candidate word's column (start, height) and bits. Only
  // words whose column is at least `floor` tall are kept (branch-free:
  // every word is written at slot k, which advances only for a kept word).
  uint32_t* start = arena.Alloc<uint32_t>(W);
  uint32_t* height = arena.Alloc<uint32_t>(W);
  uint64_t* bits = arena.Alloc<uint64_t>(W);
  uint32_t k = 0;
  uint32_t maxh = 0;
  auto keep = [&](size_t j, uint32_t s, uint32_t h) {
    assert(h <= L);
    start[k] = s;
    height[k] = h;
    bits[k] = wbits[j];
    maxh = std::max(maxh, h);
    k += h >= floor ? 1 : 0;
  };
  if (lookup != nullptr) {
    // Table lookup, O(W): the table was synced once for this group state
    // and is shared by every candidate scanned against it.
    if (lookup->stamp_ != stamp_) {
      std::fprintf(stderr,
                   "GroupLevelSet: ColumnLookup is not synced to this group "
                   "state\n");
      std::abort();
    }
    const ColumnLookup::Span* span = lookup->column_.data();
    for (size_t j = 0; j < W; ++j) {
      keep(j, span[widx[j]].start, span[widx[j]].height);
    }
  } else {
    // One-shot: a two-pointer merge with the touched index, O(T + W) —
    // cheaper than syncing a table that would serve a single candidate.
    const size_t T = touched_.size();
    size_t i = 0;
    for (size_t j = 0; j < W; ++j) {
      while (i < T && touched_[i] < widx[j]) ++i;
      const bool hit = i < T && touched_[i] == widx[j];
      keep(j, hit ? col_start_[i] : 0,
           hit ? col_start_[i + 1] - col_start_[i] : 0);
    }
  }
  plan->n = k;
  plan->maxh = maxh;
  plan->rows = arena.Alloc<uint64_t*>(maxh + 1);
  std::memset(plan->rows, 0, (maxh + 1) * sizeof(uint64_t*));
  if (floor > 0) {
    // A floored plan keeps pass-1 order with zero-padded rows (see
    // EvalPlan); every kept height is >= floor >= 1.
    plan->cw = bits;
    plan->cstart = start;
    plan->height = height;
    return;
  }

  // Pass 2: counting sort by height, descending, stable over word order.
  // cnt[m] = #columns with height >= m doubles as both the sort offsets
  // and the per-level prefix lengths the eval loop needs. Suffix-sum the
  // histogram: after this, cnt[m] counts h >= m.
  uint32_t* cnt = arena.Alloc<uint32_t>(maxh + 2);
  std::memset(cnt, 0, (maxh + 2) * sizeof(uint32_t));
  for (uint32_t q = 0; q < k; ++q) ++cnt[height[q]];
  for (size_t m = maxh + 1; m-- > 0;) cnt[m] += cnt[m + 1];
  uint32_t* off = arena.Alloc<uint32_t>(maxh + 1);
  for (size_t m = 0; m <= maxh; ++m) off[m] = cnt[m + 1];
  uint64_t* cw = arena.Alloc<uint64_t>(k);
  uint32_t* cstart = arena.Alloc<uint32_t>(k);
  for (uint32_t q = 0; q < k; ++q) {
    uint32_t p = off[height[q]]++;
    cw[p] = bits[q];
    cstart[p] = start[q];
  }
  plan->cw = cw;
  plan->cstart = cstart;
  plan->cnt = cnt;
}

void GroupLevelSet::SpliceColumns(const std::vector<uint32_t>& cand_pos,
                                  const std::vector<uint64_t>& new_words,
                                  const std::vector<uint32_t>& new_first,
                                  const std::vector<uint32_t>& new_heights) {
  std::vector<uint64_t> arena;
  arena.reserve(arena_.size() + new_words.size());
  std::vector<uint32_t> starts(touched_.size() + 1);
  size_t j = 0;
  for (size_t p = 0; p < touched_.size(); ++p) {
    starts[p] = static_cast<uint32_t>(arena.size());
    if (j < cand_pos.size() && cand_pos[j] == p) {
      arena.insert(arena.end(), new_words.begin() + new_first[j],
                   new_words.begin() + new_first[j] + new_heights[j]);
      ++j;
    } else {
      arena.insert(arena.end(), arena_.begin() + col_start_[p],
                   arena_.begin() + col_start_[p + 1]);
    }
  }
  starts.back() = static_cast<uint32_t>(arena.size());
  arena_ = std::move(arena);
  col_start_ = std::move(starts);
}

void GroupLevelSet::Add(const ActivityVector& v) {
  assert(v.num_epochs() == num_epochs_);
  stamp_ = NextStamp();
  ++num_tenants_;
  const auto& widx = v.word_indices();
  const auto& wbits = v.word_bits();
  size_t num_levels = pops_.size();

  if (num_levels == 0) {
    // A tenant with no activity contributes no level. No level also means
    // every current member is inactive everywhere, so the candidate's words
    // *are* the touched index (heights all one: widx holds nonzero words).
    if (v.ActiveEpochs() > 0) {
      touched_ = widx;
      col_start_.resize(touched_.size() + 1);
      for (size_t k = 0; k <= touched_.size(); ++k) {
        col_start_[k] = static_cast<uint32_t>(k);
      }
      arena_ = wbits;
      pops_.assign(1, v.ActiveEpochs());
    }
    return;
  }

  std::vector<uint32_t> cand_pos;
  MergeTouched(widx, &cand_pos);

  // Recompute each candidate column from its old prefix. Within a column
  // levels are nested, so every updated word at m <= height stays nonzero
  // and only the height+1 entry (old top AND candidate) can be new — the
  // column grows by at most one word.
  std::vector<uint64_t> new_words;
  new_words.reserve(arena_.size() / 2 + widx.size());
  std::vector<uint32_t> new_first(widx.size());
  std::vector<uint32_t> new_heights(widx.size());
  std::vector<size_t> delta(num_levels + 1, 0);
  for (size_t j = 0; j < widx.size(); ++j) {
    uint32_t s = col_start_[cand_pos[j]];
    uint32_t h = col_start_[cand_pos[j] + 1] - s;
    uint64_t cw = wbits[j];
    new_first[j] = static_cast<uint32_t>(new_words.size());
    new_words.resize(new_first[j] + h);
    const uint64_t* col = arena_.data() + s;
    uint64_t* out = new_words.data() + new_first[j];
    if (h >= 1) {
      // L_0 is conceptually all-ones, so at m == 1 the join term is C.
      uint64_t lifted = cw & ~col[0];
      out[0] = col[0] | lifted;
      delta[0] += Pop(lifted);
      // Levels 2..h have below = col[m - 2], a contiguous column span.
      simd::OrAndBcastStoreDelta(col + 1, col, cw, out + 1, delta.data() + 1,
                                 h - 1);
    }
    // The possibly-new top word: old-top AND candidate (for a height-zero
    // column the candidate lifts level 1 directly).
    uint64_t top = h >= 1 ? col[h - 1] & cw : cw;
    if (top != 0) {
      delta[h] += Pop(top);
      new_words.push_back(top);
      new_heights[j] = h + 1;
    } else {
      new_heights[j] = h;
    }
  }
  SpliceColumns(cand_pos, new_words, new_first, new_heights);

  for (size_t m = 1; m <= num_levels; ++m) pops_[m - 1] += delta[m - 1];
  if (delta[num_levels] > 0) pops_.push_back(delta[num_levels]);
}

Status GroupLevelSet::Remove(const ActivityVector& v) {
  assert(v.num_epochs() == num_epochs_);
  if (num_tenants_ == 0) {
    return Status::FailedPrecondition("group is empty");
  }
  stamp_ = NextStamp();
  --num_tenants_;
  const auto& widx = v.word_indices();
  const auto& wbits = v.word_bits();
  size_t num_levels = pops_.size();
  // Only previously-added vectors may be removed, so every candidate word
  // is in the touched index already.
  std::vector<uint32_t> cand_pos(widx.size());
  {
    size_t i = 0;
    for (size_t j = 0; j < widx.size(); ++j) {
      while (i < touched_.size() && touched_[i] < widx[j]) ++i;
      assert(i < touched_.size() && touched_[i] == widx[j]);
      cand_pos[j] = static_cast<uint32_t>(i);
    }
  }
  // An epoch leaves level m iff its old count was exactly m (in L_m but
  // not L_{m+1}) and the tenant was active there; each new word reads only
  // *old* column words, then trailing zero words are trimmed so columns
  // stay nonzero prefixes.
  std::vector<uint64_t> new_words;
  new_words.reserve(arena_.size() / 2);
  std::vector<uint32_t> new_first(widx.size());
  std::vector<uint32_t> new_heights(widx.size());
  std::vector<size_t> delta(num_levels, 0);
  for (size_t j = 0; j < widx.size(); ++j) {
    uint32_t s = col_start_[cand_pos[j]];
    uint32_t h = col_start_[cand_pos[j] + 1] - s;
    uint64_t cw = wbits[j];
    new_first[j] = static_cast<uint32_t>(new_words.size());
    new_words.resize(new_first[j] + h);
    const uint64_t* col = arena_.data() + s;
    uint64_t* out = new_words.data() + new_first[j];
    if (h >= 1) {
      // Levels 1..h-1 have above = col[m], a contiguous column span; the
      // top level's above is zero.
      simd::AndNotBcastStoreDelta(col, col + 1, cw, out, delta.data(), h - 1);
      uint64_t dropped = col[h - 1] & cw;
      out[h - 1] = col[h - 1] & ~dropped;
      delta[h - 1] += Pop(dropped);
    }
    // Levels stay nested, so the new column is still a nonzero prefix.
    uint32_t nh = h;
    while (nh > 0 && out[nh - 1] == 0) --nh;
    new_words.resize(new_first[j] + nh);  // trim the zero tail
    new_heights[j] = nh;
  }
  SpliceColumns(cand_pos, new_words, new_first, new_heights);

  for (size_t m = 1; m <= num_levels; ++m) pops_[m - 1] -= delta[m - 1];
  while (!pops_.empty() && pops_.back() == 0) pops_.pop_back();
  // The touched index stays as an upper bound while levels exist; once the
  // group drains to zero activity the next Add rebuilds it from scratch.
  if (pops_.empty()) {
    touched_.clear();
    col_start_.clear();
    arena_.clear();
  }
  return Status::OK();
}

size_t GroupLevelSet::CountAtLeast(int m) const {
  assert(m >= 1);
  if (static_cast<size_t>(m) > pops_.size()) return 0;
  return pops_[static_cast<size_t>(m) - 1];
}

size_t GroupLevelSet::CountAtMost(int m) const {
  assert(m >= 0);
  if (static_cast<size_t>(m) >= pops_.size()) return num_epochs_;
  return num_epochs_ - pops_[static_cast<size_t>(m)];
}

double GroupLevelSet::Ttp(int r) const {
  if (num_epochs_ == 0) return 1.0;
  return static_cast<double>(CountAtMost(r)) /
         static_cast<double>(num_epochs_);
}

std::vector<double> GroupLevelSet::ExactLevelFractions() const {
  std::vector<double> fractions(pops_.size());
  for (size_t m = 1; m <= pops_.size(); ++m) {
    size_t at_least_m = pops_[m - 1];
    size_t at_least_m1 = m < pops_.size() ? pops_[m] : 0;
    fractions[m - 1] = static_cast<double>(at_least_m - at_least_m1) /
                       static_cast<double>(num_epochs_);
  }
  return fractions;
}

std::vector<size_t> GroupLevelSet::EvaluateAdd(const ActivityVector& v) const {
  EvalScratch scratch;
  EvaluateAddInto(v, &scratch);
  return std::move(scratch.pops);
}

int GroupLevelSet::EvalCore(const ActivityVector& v,
                            const ColumnLookup* lookup,
                            const std::vector<size_t>* incumbent,
                            uint32_t floor, EvalScratch* scratch) const {
  EvalPlan plan;
  BuildPlan(v, lookup, floor, scratch, &plan);
  const size_t num_levels = pops_.size();
  scratch->pops.assign(num_levels + 1, 0);
  // Levels are independent of each other, so they can be computed top-down,
  // in exactly the order the Fig 5.3 comparison consumes them: the exact
  // count at level m is at_least(m) - at_least(m+1). The first strictly
  // differing level decides, which is what makes abandoning a losing
  // candidate early (`return 1` below) outcome-identical to the full
  // EvaluateAdd + CompareCandidateLevels. Each level's body runs as span
  // kernels over the height-sorted prefix: columns with a stored word at
  // level m contribute pop(L_m | (L_{m-1} & C)) − pop(L_m), columns whose
  // top is exactly level m-1 contribute pop(L_{m-1} & C), and shorter
  // columns contribute nothing. Working top-down also means each gathered
  // row is built at most once (level m reuses level m+1's `below` row).
  // Level m reads only columns at least m-1 tall, so a plan floored at f
  // holds every column levels above f read, and evaluates exactly those.
  size_t above = 0;  // at_least(m + 1), from the previous iteration
  int winner = 0;
  for (size_t m = num_levels + 1; m > floor; --m) {
    size_t base = m <= num_levels ? pops_[m - 1] : 0;
    size_t delta;
    if (m == 1) {
      // L_0 is all-ones, so the joining term is C itself. Height-zero
      // columns (and words outside the touched index) have zero count, so
      // the candidate lifts them straight into level 1 and nowhere else.
      const uint32_t n1 = plan.CntAt(1);
      delta = 0;
      if (n1 > 0) {
        delta += simd::OrPopcountDelta(plan.Row(1, arena_, &scratch->arena),
                                       plan.cw, n1);
      }
      delta += simd::SpanPopcount(plan.cw + n1, plan.n - n1);
    } else {
      const uint32_t nm = plan.CntAt(m);
      const uint32_t nm1 = plan.CntAt(m - 1);
      delta = 0;
      if (nm1 > 0) {
        const uint64_t* below = plan.Row(m - 1, arena_, &scratch->arena);
        if (nm > 0) {
          delta += simd::OrAndPopcountDelta(
              plan.Row(m, arena_, &scratch->arena), below, plan.cw, nm);
        }
        delta += simd::AndPopcount(below + nm, plan.cw + nm, nm1 - nm);
      }
    }
    size_t at_least = base + delta;
    scratch->pops[m - 1] = at_least;
    if (incumbent != nullptr && winner == 0) {
      size_t exact = at_least - above;
      size_t inc_m = m <= incumbent->size() ? (*incumbent)[m - 1] : 0;
      size_t inc_m1 = m < incumbent->size() ? (*incumbent)[m] : 0;
      size_t inc_exact = inc_m - inc_m1;
      if (exact < inc_exact) {
        winner = -1;  // already won; keep filling pops for the caller
      } else if (exact > inc_exact) {
        scratch->lowest_filled = m;
        return 1;  // prune: lower levels can no longer matter
      }
    }
    above = at_least;
  }
  scratch->lowest_filled = floor + 1;
  // Drop an empty would-be top level so MaxActive stays meaningful.
  if (scratch->pops.back() == 0) scratch->pops.pop_back();
  return winner;
}

void GroupLevelSet::EvaluateAddInto(const ActivityVector& v,
                                    EvalScratch* scratch) const {
  assert(v.num_epochs() == num_epochs_);
  EvalCore(v, nullptr, nullptr, 0, scratch);
}

void GroupLevelSet::EvaluateAddInto(const ActivityVector& v,
                                    const ColumnLookup& lookup,
                                    EvalScratch* scratch) const {
  assert(v.num_epochs() == num_epochs_);
  EvalCore(v, &lookup, nullptr, 0, scratch);
}

int GroupLevelSet::EvaluateAddCompare(const ActivityVector& v,
                                      const std::vector<size_t>& incumbent,
                                      const ColumnLookup& lookup,
                                      EvalScratch* scratch) const {
  assert(v.num_epochs() == num_epochs_);
  assert(!incumbent.empty());
  assert(incumbent.size() <= pops_.size() + 1);
  // The screen: levels M+1 and M (M = MaxActive()) decide most compares,
  // and they read only columns at least M-1 tall — only part of the
  // candidate's words. A plan floored at M-1 proves most losers
  // worse; only a candidate that ties or wins both levels pays for the full
  // plan, which re-evaluates from the top and fills every level.
  const uint32_t top = static_cast<uint32_t>(pops_.size());
  if (top >= 2 && EvalCore(v, &lookup, &incumbent, top - 1, scratch) > 0) {
    return 1;
  }
  return EvalCore(v, &lookup, &incumbent, 0, scratch);
}

double GroupLevelSet::TtpFromPopcounts(
    const std::vector<size_t>& at_least_pops, int r) const {
  assert(r >= 0);
  if (num_epochs_ == 0) return 1.0;
  size_t above = static_cast<size_t>(r) < at_least_pops.size()
                     ? at_least_pops[static_cast<size_t>(r)]
                     : 0;
  return static_cast<double>(num_epochs_ - above) /
         static_cast<double>(num_epochs_);
}

size_t GroupLevelSet::MemoryBytes() const {
  return touched_.size() * sizeof(uint32_t) +
         col_start_.size() * sizeof(uint32_t) +
         arena_.size() * sizeof(uint64_t) + pops_.size() * sizeof(size_t);
}

size_t GroupLevelSet::DenseEquivalentBytes() const {
  size_t words = (num_epochs_ + 63) / 64;
  return pops_.size() * words * sizeof(uint64_t) +
         pops_.size() * sizeof(size_t);
}

}  // namespace thrifty
