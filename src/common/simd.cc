#include "common/simd.h"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>

// The THRIFTY_FORCE_SCALAR environment variable forces scalar at runtime.
// Vector paths are built with per-function target attributes so the rest
// of the translation unit (and the whole project) keeps the portable
// baseline flags.
// x86-64 only (the per-lane delta accumulation assumes 64-bit size_t).
#if defined(__x86_64__)
#define THRIFTY_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define THRIFTY_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace thrifty {
namespace simd {

// --- Scalar reference ---------------------------------------------------

size_t ScalarSpanPopcount(const uint64_t* w, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

size_t ScalarAndPopcount(const uint64_t* a, const uint64_t* b, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

size_t ScalarOrPopcountDelta(const uint64_t* old_w, const uint64_t* cand,
                             size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += std::popcount(old_w[i] | cand[i]) - std::popcount(old_w[i]);
  }
  return total;
}

size_t ScalarOrAndPopcountDelta(const uint64_t* old_w, const uint64_t* below,
                                const uint64_t* cand, size_t n) {
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += std::popcount(old_w[i] | (below[i] & cand[i])) -
             std::popcount(old_w[i]);
  }
  return total;
}

void ScalarOrAndBcastStoreDelta(const uint64_t* old_w, const uint64_t* below,
                                uint64_t cand, uint64_t* out, size_t* delta,
                                size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t lifted = (below[i] & cand) & ~old_w[i];
    out[i] = old_w[i] | lifted;
    delta[i] += static_cast<size_t>(std::popcount(lifted));
  }
}

void ScalarAndNotBcastStoreDelta(const uint64_t* old_w, const uint64_t* above,
                                 uint64_t cand, uint64_t* out, size_t* delta,
                                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    uint64_t dropped = (old_w[i] & cand) & ~above[i];
    out[i] = old_w[i] & ~dropped;
    delta[i] += static_cast<size_t>(std::popcount(dropped));
  }
}

// --- AVX2 ---------------------------------------------------------------

#if defined(THRIFTY_SIMD_X86)

#define THRIFTY_AVX2 __attribute__((target("avx2")))

// Per-64-bit-lane popcount of a 256-bit vector: the classic pshufb
// nibble-LUT counts bits per byte, then SAD against zero folds each 8-byte
// lane into its u64 sum. Exact for every input (pure integer), so results
// match the scalar reference bit-for-bit.
THRIFTY_AVX2 static inline __m256i PopLanes(__m256i v) {
  const __m256i lut =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1,
                       1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low = _mm256_set1_epi8(0x0f);
  __m256i lo = _mm256_and_si256(v, low);
  __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
  __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

THRIFTY_AVX2 static inline uint64_t HSum(__m256i acc) {
  __m128i lo = _mm256_castsi256_si128(acc);
  __m128i hi = _mm256_extracti128_si256(acc, 1);
  __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<uint64_t>(_mm_extract_epi64(s, 1));
}

THRIFTY_AVX2 static size_t Avx2SpanPopcount(const uint64_t* w, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i + 4));
    acc = _mm256_add_epi64(acc, PopLanes(a));
    acc = _mm256_add_epi64(acc, PopLanes(b));
  }
  if (i + 4 <= n) {
    __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    acc = _mm256_add_epi64(acc, PopLanes(a));
    i += 4;
  }
  size_t total = HSum(acc);
  for (; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

THRIFTY_AVX2 static size_t Avx2AndPopcount(const uint64_t* a,
                                           const uint64_t* b, size_t n) {
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    acc = _mm256_add_epi64(acc, PopLanes(_mm256_and_si256(va, vb)));
  }
  size_t total = HSum(acc);
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

THRIFTY_AVX2 static size_t Avx2OrPopcountDelta(const uint64_t* old_w,
                                               const uint64_t* cand,
                                               size_t n) {
  // Σ pop(old|cand) − Σ pop(old) == Σ pop(cand & ~old): count only the
  // newly lifted bits, one popcount per word instead of two. The scalar
  // reference computes the subtraction form; these are equal exactly (set
  // algebra on the same words), not just numerically.
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i vo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(old_w + i));
    __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand + i));
    acc = _mm256_add_epi64(acc, PopLanes(_mm256_andnot_si256(vo, vc)));
  }
  size_t total = HSum(acc);
  for (; i < n; ++i) total += std::popcount(cand[i] & ~old_w[i]);
  return total;
}

THRIFTY_AVX2 static size_t Avx2OrAndPopcountDelta(const uint64_t* old_w,
                                                  const uint64_t* below,
                                                  const uint64_t* cand,
                                                  size_t n) {
  // Σ pop(old|(below&cand)) − Σ pop(old) == Σ pop((below&cand) & ~old).
  __m256i acc = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i vo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(old_w + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(below + i));
    __m256i vc =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cand + i));
    __m256i lifted =
        _mm256_andnot_si256(vo, _mm256_and_si256(vb, vc));
    acc = _mm256_add_epi64(acc, PopLanes(lifted));
  }
  size_t total = HSum(acc);
  for (; i < n; ++i) {
    total += std::popcount((below[i] & cand[i]) & ~old_w[i]);
  }
  return total;
}

static_assert(sizeof(size_t) == sizeof(uint64_t),
              "per-lane delta accumulation stores u64 lanes into size_t[]");

THRIFTY_AVX2 static void Avx2OrAndBcastStoreDelta(const uint64_t* old_w,
                                                  const uint64_t* below,
                                                  uint64_t cand,
                                                  uint64_t* out,
                                                  size_t* delta, size_t n) {
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(cand));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i vo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(old_w + i));
    __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(below + i));
    __m256i lifted = _mm256_andnot_si256(vo, _mm256_and_si256(vb, vc));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(vo, lifted));
    __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        reinterpret_cast<const uint64_t*>(delta + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(delta + i),
                        _mm256_add_epi64(vd, PopLanes(lifted)));
  }
  for (; i < n; ++i) {
    uint64_t lifted = (below[i] & cand) & ~old_w[i];
    out[i] = old_w[i] | lifted;
    delta[i] += static_cast<size_t>(std::popcount(lifted));
  }
}

THRIFTY_AVX2 static void Avx2AndNotBcastStoreDelta(const uint64_t* old_w,
                                                   const uint64_t* above,
                                                   uint64_t cand,
                                                   uint64_t* out,
                                                   size_t* delta, size_t n) {
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(cand));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i vo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(old_w + i));
    __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(above + i));
    __m256i dropped = _mm256_andnot_si256(va, _mm256_and_si256(vo, vc));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_andnot_si256(dropped, vo));
    __m256i vd = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        reinterpret_cast<const uint64_t*>(delta + i)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(delta + i),
                        _mm256_add_epi64(vd, PopLanes(dropped)));
  }
  for (; i < n; ++i) {
    uint64_t dropped = (old_w[i] & cand) & ~above[i];
    out[i] = old_w[i] & ~dropped;
    delta[i] += static_cast<size_t>(std::popcount(dropped));
  }
}

#endif  // THRIFTY_SIMD_X86

// --- NEON ---------------------------------------------------------------

#if defined(THRIFTY_SIMD_NEON)

// vcntq_u8 counts bits per byte; the vaddv folds to a scalar. NEON is
// baseline on aarch64, so no target attributes are needed.
static inline uint64_t NeonPop128(uint8x16_t v) {
  return vaddvq_u8(vcntq_u8(v));
}

static size_t NeonSpanPopcount(const uint64_t* w, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    total += NeonPop128(vreinterpretq_u8_u64(vld1q_u64(w + i)));
  }
  for (; i < n; ++i) total += std::popcount(w[i]);
  return total;
}

static size_t NeonAndPopcount(const uint64_t* a, const uint64_t* b,
                              size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t v = vandq_u64(vld1q_u64(a + i), vld1q_u64(b + i));
    total += NeonPop128(vreinterpretq_u8_u64(v));
  }
  for (; i < n; ++i) total += std::popcount(a[i] & b[i]);
  return total;
}

static size_t NeonOrPopcountDelta(const uint64_t* old_w, const uint64_t* cand,
                                  size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    // pop(cand & ~old): exactly the bits the candidate lifts.
    uint64x2_t v = vbicq_u64(vld1q_u64(cand + i), vld1q_u64(old_w + i));
    total += NeonPop128(vreinterpretq_u8_u64(v));
  }
  for (; i < n; ++i) total += std::popcount(cand[i] & ~old_w[i]);
  return total;
}

static size_t NeonOrAndPopcountDelta(const uint64_t* old_w,
                                     const uint64_t* below,
                                     const uint64_t* cand, size_t n) {
  uint64_t total = 0;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t bc = vandq_u64(vld1q_u64(below + i), vld1q_u64(cand + i));
    uint64x2_t v = vbicq_u64(bc, vld1q_u64(old_w + i));
    total += NeonPop128(vreinterpretq_u8_u64(v));
  }
  for (; i < n; ++i) {
    total += std::popcount((below[i] & cand[i]) & ~old_w[i]);
  }
  return total;
}

static void NeonOrAndBcastStoreDelta(const uint64_t* old_w,
                                     const uint64_t* below, uint64_t cand,
                                     uint64_t* out, size_t* delta, size_t n) {
  const uint64x2_t vc = vdupq_n_u64(cand);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t vo = vld1q_u64(old_w + i);
    uint64x2_t lifted = vbicq_u64(vandq_u64(vld1q_u64(below + i), vc), vo);
    vst1q_u64(out + i, vorrq_u64(vo, lifted));
    // Per-lane (per-level) popcounts: count bits per byte, then fold each
    // 8-byte lane separately.
    uint64x2_t lanes = vpaddlq_u32(
        vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(lifted)))));
    uint64x2_t vd = vld1q_u64(reinterpret_cast<const uint64_t*>(delta + i));
    vst1q_u64(reinterpret_cast<uint64_t*>(delta + i), vaddq_u64(vd, lanes));
  }
  for (; i < n; ++i) {
    uint64_t lifted = (below[i] & cand) & ~old_w[i];
    out[i] = old_w[i] | lifted;
    delta[i] += static_cast<size_t>(std::popcount(lifted));
  }
}

static void NeonAndNotBcastStoreDelta(const uint64_t* old_w,
                                      const uint64_t* above, uint64_t cand,
                                      uint64_t* out, size_t* delta,
                                      size_t n) {
  const uint64x2_t vc = vdupq_n_u64(cand);
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    uint64x2_t vo = vld1q_u64(old_w + i);
    uint64x2_t dropped =
        vbicq_u64(vandq_u64(vo, vc), vld1q_u64(above + i));
    vst1q_u64(out + i, vbicq_u64(vo, dropped));
    uint64x2_t lanes = vpaddlq_u32(
        vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(dropped)))));
    uint64x2_t vd = vld1q_u64(reinterpret_cast<const uint64_t*>(delta + i));
    vst1q_u64(reinterpret_cast<uint64_t*>(delta + i), vaddq_u64(vd, lanes));
  }
  for (; i < n; ++i) {
    uint64_t dropped = (old_w[i] & cand) & ~above[i];
    out[i] = old_w[i] & ~dropped;
    delta[i] += static_cast<size_t>(std::popcount(dropped));
  }
}

static_assert(sizeof(size_t) == sizeof(uint64_t),
              "per-lane delta accumulation stores u64 lanes into size_t[]");

#endif  // THRIFTY_SIMD_NEON

// --- Dispatch -----------------------------------------------------------

namespace {

constexpr Kernels kScalarKernels = {
    &ScalarSpanPopcount,         &ScalarAndPopcount,
    &ScalarOrPopcountDelta,      &ScalarOrAndPopcountDelta,
    &ScalarOrAndBcastStoreDelta, &ScalarAndNotBcastStoreDelta};

#if defined(THRIFTY_SIMD_X86)
constexpr Kernels kAvx2Kernels = {
    &Avx2SpanPopcount,         &Avx2AndPopcount,
    &Avx2OrPopcountDelta,      &Avx2OrAndPopcountDelta,
    &Avx2OrAndBcastStoreDelta, &Avx2AndNotBcastStoreDelta};
#endif
#if defined(THRIFTY_SIMD_NEON)
constexpr Kernels kNeonKernels = {
    &NeonSpanPopcount,         &NeonAndPopcount,
    &NeonOrPopcountDelta,      &NeonOrAndPopcountDelta,
    &NeonOrAndBcastStoreDelta, &NeonAndNotBcastStoreDelta};
#endif

const Kernels* KernelsFor(Target target) {
  switch (target) {
#if defined(THRIFTY_SIMD_X86)
    case Target::kAvx2:
      return &kAvx2Kernels;
#endif
#if defined(THRIFTY_SIMD_NEON)
    case Target::kNeon:
      return &kNeonKernels;
#endif
    default:
      return &kScalarKernels;
  }
}

Target DetectTarget() {
  const char* force = std::getenv("THRIFTY_FORCE_SCALAR");
  if (force != nullptr && force[0] != '\0' && force[0] != '0') {
    return Target::kScalar;
  }
#if defined(THRIFTY_SIMD_X86)
  if (__builtin_cpu_supports("avx2")) return Target::kAvx2;
#endif
#if defined(THRIFTY_SIMD_NEON)
  return Target::kNeon;
#endif
  return Target::kScalar;
}

struct Dispatch {
  Target target;
  const Kernels* kernels;
  Dispatch() : target(DetectTarget()), kernels(KernelsFor(target)) {}
};

Dispatch& GetDispatch() {
  static Dispatch dispatch;
  return dispatch;
}

}  // namespace

Target ActiveTarget() { return GetDispatch().target; }

const Kernels& ActiveKernels() { return *GetDispatch().kernels; }

const char* TargetName(Target target) {
  switch (target) {
    case Target::kAvx2:
      return "avx2";
    case Target::kNeon:
      return "neon";
    default:
      return "scalar";
  }
}

const char* TargetName() { return TargetName(ActiveTarget()); }

bool TargetSupported(Target target) {
  switch (target) {
    case Target::kScalar:
      return true;
    case Target::kAvx2:
#if defined(THRIFTY_SIMD_X86)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Target::kNeon:
#if defined(THRIFTY_SIMD_NEON)
      return true;
#else
      return false;
#endif
  }
  return false;
}

Target SetSimdTargetForTest(Target target) {
  if (!TargetSupported(target)) target = Target::kScalar;
  Dispatch& dispatch = GetDispatch();
  dispatch.target = target;
  dispatch.kernels = KernelsFor(target);
  return target;
}

}  // namespace simd

// --- EvalArena ----------------------------------------------------------

EvalArena::~EvalArena() {
  ::operator delete[](block_, std::align_val_t{64});
}

EvalArena::EvalArena(EvalArena&& other) noexcept
    : block_(other.block_), capacity_(other.capacity_), used_(other.used_) {
  other.block_ = nullptr;
  other.capacity_ = 0;
  other.used_ = 0;
}

EvalArena& EvalArena::operator=(EvalArena&& other) noexcept {
  if (this != &other) {
    ::operator delete[](block_, std::align_val_t{64});
    block_ = other.block_;
    capacity_ = other.capacity_;
    used_ = other.used_;
    other.block_ = nullptr;
    other.capacity_ = 0;
    other.used_ = 0;
  }
  return *this;
}

void EvalArena::Grow(size_t words) {
  size_t capacity = capacity_ == 0 ? 256 : capacity_ * 2;
  if (capacity < words) capacity = words;
  uint64_t* block = static_cast<uint64_t*>(
      ::operator new[](capacity * sizeof(uint64_t), std::align_val_t{64}));
  if (used_ > 0) std::memcpy(block, block_, used_ * sizeof(uint64_t));
  ::operator delete[](block_, std::align_val_t{64});
  block_ = block;
  capacity_ = capacity;
}

}  // namespace thrifty
