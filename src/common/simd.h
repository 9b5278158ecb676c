// Portable SIMD kernel layer for the word-wise hot loops.
//
// Every solve-bound inner loop in this codebase has the same shape: a scan
// over spans of 64-bit activity words combining bitwise algebra with
// popcounts (the Fig 5.3 candidate argmin, DynamicBitmap span popcounts,
// the level-column rebuilds). This header exposes those scans as a small set
// of kernel primitives with three implementations — AVX2, NEON, and a
// scalar reference — selected once at startup by runtime CPU detection:
//
//   * SpanPopcount        — popcount over a word span.
//   * AndPopcount         — fused AND + popcount over two parallel spans.
//   * OrPopcountDelta     — Σ pop(old|cand) − Σ pop(old): the level-1 body
//                           of the candidate argmin.
//   * OrAndPopcountDelta  — Σ pop(old|(below&cand)) − Σ pop(old): the
//                           general level body of the candidate argmin
//                           (L'_m = L_m | (L_{m-1} & C) restricted to the
//                           candidate's words).
//   * OrAndBcastStoreDelta / AndNotBcastStoreDelta — the level-column
//                           rebuild bodies of GroupLevelSet::Add/Remove:
//                           one candidate word broadcast against a
//                           contiguous column of level words, writing the
//                           new column and the per-level popcount deltas.
//
// Correctness contract: every implementation computes bit-identical integer
// results to the scalar reference for every input (these are pure integer
// kernels — there is no floating point anywhere), so swapping dispatch
// targets can never change a solver fingerprint. tests/simd_kernel_test.cc
// proves this with randomized replayable cases per primitive.
//
// Dispatch control:
//   * runtime: set THRIFTY_FORCE_SCALAR=1 in the environment to pin the
//     scalar reference regardless of CPU support (read once, at first use).
//   * tests: SetSimdTargetForTest overrides dispatch in-process (never
//     upward — a target the CPU lacks is clamped to scalar).

#ifndef THRIFTY_COMMON_SIMD_H_
#define THRIFTY_COMMON_SIMD_H_

#include <bit>
#include <cstddef>
#include <cstdint>

namespace thrifty {
namespace simd {

/// \brief Instruction-set target the kernel dispatch resolved to.
enum class Target {
  kScalar,
  kAvx2,
  kNeon,
};

/// \brief The active dispatch target (CPU detection + THRIFTY_FORCE_SCALAR,
/// resolved once).
Target ActiveTarget();

/// \brief Lower-case name of the active target: "avx2", "neon", "scalar".
const char* TargetName();

/// \brief Name of `target`.
const char* TargetName(Target target);

/// \brief True if the running CPU (and build) can execute `target`.
bool TargetSupported(Target target);

/// \brief Overrides dispatch for tests/benches. Unsupported targets clamp
/// to scalar; returns the target actually installed. Not thread-safe —
/// call only from single-threaded test/bench setup.
Target SetSimdTargetForTest(Target target);

// --- Scalar reference implementations (always available) ---------------
// These are the semantics; the vector paths must match them bit-for-bit.

size_t ScalarSpanPopcount(const uint64_t* w, size_t n);
size_t ScalarAndPopcount(const uint64_t* a, const uint64_t* b, size_t n);
size_t ScalarOrPopcountDelta(const uint64_t* old_w, const uint64_t* cand,
                             size_t n);
size_t ScalarOrAndPopcountDelta(const uint64_t* old_w, const uint64_t* below,
                                const uint64_t* cand, size_t n);
void ScalarOrAndBcastStoreDelta(const uint64_t* old_w, const uint64_t* below,
                                uint64_t cand, uint64_t* out, size_t* delta,
                                size_t n);
void ScalarAndNotBcastStoreDelta(const uint64_t* old_w, const uint64_t* above,
                                 uint64_t cand, uint64_t* out, size_t* delta,
                                 size_t n);

// --- Dispatched kernels -------------------------------------------------

struct Kernels {
  size_t (*span_popcount)(const uint64_t*, size_t);
  size_t (*and_popcount)(const uint64_t*, const uint64_t*, size_t);
  size_t (*or_popcount_delta)(const uint64_t*, const uint64_t*, size_t);
  size_t (*or_and_popcount_delta)(const uint64_t*, const uint64_t*,
                                  const uint64_t*, size_t);
  void (*or_and_bcast_store_delta)(const uint64_t*, const uint64_t*, uint64_t,
                                   uint64_t*, size_t*, size_t);
  void (*and_not_bcast_store_delta)(const uint64_t*, const uint64_t*,
                                    uint64_t, uint64_t*, size_t*, size_t);
};

/// \brief The active kernel table (initialized on first use).
const Kernels& ActiveKernels();

/// \brief Spans shorter than this run the inline scalar body below instead
/// of paying the dispatch indirection; identical results either way (the
/// vector paths are bit-exact against scalar).
constexpr size_t kInlineSpanWords = 8;

/// \brief Popcount over `n` words.
inline size_t SpanPopcount(const uint64_t* w, size_t n) {
  if (n < kInlineSpanWords) {
    size_t total = 0;
    for (size_t i = 0; i < n; ++i) total += std::popcount(w[i]);
    return total;
  }
  return ActiveKernels().span_popcount(w, n);
}

/// \brief Popcount of a[i] & b[i] over `n` parallel words.
inline size_t AndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  if (n < kInlineSpanWords) {
    size_t total = 0;
    for (size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
    return total;
  }
  return ActiveKernels().and_popcount(a, b, n);
}

/// \brief Σ pop(old|cand) − Σ pop(old) over `n` parallel words: how many
/// zero bits of `old` the candidate lifts (the L_0 ≡ all-ones level body).
inline size_t OrPopcountDelta(const uint64_t* old_w, const uint64_t* cand,
                              size_t n) {
  if (n < kInlineSpanWords) {
    size_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += std::popcount(cand[i] & ~old_w[i]);
    }
    return total;
  }
  return ActiveKernels().or_popcount_delta(old_w, cand, n);
}

/// \brief Σ pop(old|(below&cand)) − Σ pop(old) over `n` parallel words: the
/// level-m argmin body, L'_m = L_m | (L_{m-1} & C).
inline size_t OrAndPopcountDelta(const uint64_t* old_w, const uint64_t* below,
                                 const uint64_t* cand, size_t n) {
  if (n < kInlineSpanWords) {
    size_t total = 0;
    for (size_t i = 0; i < n; ++i) {
      total += std::popcount((below[i] & cand[i]) & ~old_w[i]);
    }
    return total;
  }
  return ActiveKernels().or_and_popcount_delta(old_w, below, cand, n);
}

/// \brief Column-rebuild body of GroupLevelSet::Add with the candidate word
/// broadcast: out[i] = old[i] | (below[i] & cand) and
/// delta[i] += pop(out[i]) − pop(old[i]), elementwise over `n` levels.
inline void OrAndBcastStoreDelta(const uint64_t* old_w, const uint64_t* below,
                                 uint64_t cand, uint64_t* out, size_t* delta,
                                 size_t n) {
  if (n < kInlineSpanWords) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t lifted = (below[i] & cand) & ~old_w[i];
      out[i] = old_w[i] | lifted;
      delta[i] += static_cast<size_t>(std::popcount(lifted));
    }
    return;
  }
  ActiveKernels().or_and_bcast_store_delta(old_w, below, cand, out, delta, n);
}

/// \brief Column-rebuild body of GroupLevelSet::Remove with the candidate
/// word broadcast: out[i] = old[i] & (~cand | above[i]) and
/// delta[i] += pop(old[i]) − pop(out[i]), elementwise over `n` levels.
inline void AndNotBcastStoreDelta(const uint64_t* old_w,
                                  const uint64_t* above, uint64_t cand,
                                  uint64_t* out, size_t* delta, size_t n) {
  if (n < kInlineSpanWords) {
    for (size_t i = 0; i < n; ++i) {
      uint64_t dropped = (old_w[i] & cand) & ~above[i];
      out[i] = old_w[i] & ~dropped;
      delta[i] += static_cast<size_t>(std::popcount(dropped));
    }
    return;
  }
  ActiveKernels().and_not_bcast_store_delta(old_w, above, cand, out, delta,
                                            n);
}

}  // namespace simd

/// \brief Bump-pointer arena for the candidate-evaluation scratch state.
///
/// One arena lives in each solver shard's EvalScratch; every candidate
/// evaluation Reset()s it and carves its working arrays (per-word column
/// heights, height-sorted views, lazily gathered level rows) out of one
/// contiguous block, so the argmin inner loop performs no heap allocation
/// and its whole working set stays cache-resident. Reserve() must be called
/// with an upper bound before the per-candidate Alloc()s — the block never
/// grows between Reset()s, which is what keeps previously returned spans
/// stable.
class EvalArena {
 public:
  /// \brief Ensures capacity for `words` 8-byte units. Invalidates
  /// outstanding spans if it grows; call before the first Alloc of a cycle.
  void Reserve(size_t words) {
    if (words > capacity_) Grow(words);
  }

  /// \brief Starts a new allocation cycle (O(1); memory is retained).
  void Reset() { used_ = 0; }

  /// \brief Carves `count` elements of trivially-destructible type T
  /// (rounded up to whole 8-byte units), uninitialized.
  template <typename T>
  T* Alloc(size_t count) {
    static_assert(alignof(T) <= alignof(uint64_t));
    size_t words = (count * sizeof(T) + 7) / 8;
    // Callers pre-Reserve. This backstop keeps the new span valid if a
    // bound was computed too tightly, but Grow moves the block: spans
    // handed out earlier in the cycle dangle (their contents are copied).
    if (used_ + words > capacity_) Grow((used_ + words) * 2);
    T* out = reinterpret_cast<T*>(block_ + used_);
    used_ += words;
    return out;
  }

  size_t capacity_words() const { return capacity_; }
  size_t used_words() const { return used_; }

  ~EvalArena();
  EvalArena() = default;
  EvalArena(EvalArena&& other) noexcept;
  EvalArena& operator=(EvalArena&& other) noexcept;
  EvalArena(const EvalArena&) = delete;
  EvalArena& operator=(const EvalArena&) = delete;

 private:
  void Grow(size_t words);

  uint64_t* block_ = nullptr;
  size_t capacity_ = 0;
  size_t used_ = 0;
};

}  // namespace thrifty

#endif  // THRIFTY_COMMON_SIMD_H_
