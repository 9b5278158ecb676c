// SIMD kernel correctness: every dispatched primitive must be bit-identical
// to its scalar reference on every input. Cases are randomized but id-keyed
// — each case derives its inputs from Rng(kSuiteSeed).Fork(case_id), so a
// failure report's case_id replays the exact inputs in isolation.

#include "common/simd.h"

#include <bit>
#include <cstring>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace thrifty {
namespace {

constexpr uint64_t kSuiteSeed = 0x51D0CAFE;
constexpr int kRandomCases = 400;

// Case inputs: span length, word patterns, and an intra-allocation offset so
// unaligned starts (spans rarely begin on a 32-byte boundary in the ragged
// arena) are exercised too.
struct KernelCase {
  size_t n = 0;
  size_t offset = 0;  // words of padding before the span start
  std::vector<uint64_t> a, b, c;
};

uint64_t RandomWord(Rng* rng) {
  // Mix dense, sparse, and structured words: uniform bits are ~50% dense,
  // which never exercises the all-zero / all-one carry paths.
  switch (rng->NextBounded(5)) {
    case 0:
      return 0;
    case 1:
      return ~uint64_t{0};
    case 2:
      return rng->Next() & rng->Next() & rng->Next();  // sparse
    case 3:
      return rng->Next() | rng->Next() | rng->Next();  // dense
    default:
      return rng->Next();
  }
}

KernelCase MakeCase(uint64_t case_id) {
  Rng rng = Rng(kSuiteSeed).Fork(case_id);
  KernelCase kc;
  // Lengths cluster around the vector-width boundaries (0..4 words, one
  // AVX2 register, the 8-word unroll, and past it) plus a long tail.
  switch (rng.NextBounded(4)) {
    case 0:
      kc.n = rng.NextBounded(9);  // 0..8: inline scalar + boundary
      break;
    case 1:
      kc.n = 8 + rng.NextBounded(9);  // 8..16: one or two unroll blocks
      break;
    case 2:
      kc.n = rng.NextBounded(130);  // word-boundary straddles
      break;
    default:
      kc.n = 1 + rng.NextBounded(4096);  // long spans
      break;
  }
  kc.offset = rng.NextBounded(4);
  kc.a.resize(kc.offset + kc.n);
  kc.b.resize(kc.offset + kc.n);
  kc.c.resize(kc.offset + kc.n);
  for (size_t i = 0; i < kc.offset + kc.n; ++i) {
    kc.a[i] = RandomWord(&rng);
    kc.b[i] = RandomWord(&rng);
    kc.c[i] = RandomWord(&rng);
  }
  return kc;
}

// The non-scalar target this machine can run, if any.
bool VectorTarget(simd::Target* out) {
  for (simd::Target t : {simd::Target::kAvx2, simd::Target::kNeon}) {
    if (simd::TargetSupported(t)) {
      *out = t;
      return true;
    }
  }
  return false;
}

// Runs `check` under the vector target (when supported); restores dispatch.
// The wrappers in simd.h route short spans to an inline scalar body, so the
// checks below call through ActiveKernels() directly to hit the vector code
// even at tiny n.
class SimdKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = simd::ActiveTarget();
    has_vector_ = VectorTarget(&vector_target_);
  }
  void TearDown() override { simd::SetSimdTargetForTest(saved_); }

  simd::Target saved_ = simd::Target::kScalar;
  simd::Target vector_target_ = simd::Target::kScalar;
  bool has_vector_ = false;
};

TEST_F(SimdKernelTest, SpanPopcountMatchesScalar) {
  if (!has_vector_) GTEST_SKIP() << "no vector target on this CPU";
  simd::SetSimdTargetForTest(vector_target_);
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(1000 + id);
    const uint64_t* a = kc.a.data() + kc.offset;
    EXPECT_EQ(simd::ActiveKernels().span_popcount(a, kc.n),
              simd::ScalarSpanPopcount(a, kc.n))
        << "case_id=" << 1000 + id;
  }
}

TEST_F(SimdKernelTest, AndPopcountMatchesScalar) {
  if (!has_vector_) GTEST_SKIP() << "no vector target on this CPU";
  simd::SetSimdTargetForTest(vector_target_);
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(2000 + id);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* b = kc.b.data() + kc.offset;
    EXPECT_EQ(simd::ActiveKernels().and_popcount(a, b, kc.n),
              simd::ScalarAndPopcount(a, b, kc.n))
        << "case_id=" << 2000 + id;
  }
}

TEST_F(SimdKernelTest, OrPopcountDeltaMatchesScalar) {
  if (!has_vector_) GTEST_SKIP() << "no vector target on this CPU";
  simd::SetSimdTargetForTest(vector_target_);
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(4000 + id);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* c = kc.c.data() + kc.offset;
    EXPECT_EQ(simd::ActiveKernels().or_popcount_delta(a, c, kc.n),
              simd::ScalarOrPopcountDelta(a, c, kc.n))
        << "case_id=" << 4000 + id;
  }
}

TEST_F(SimdKernelTest, OrAndPopcountDeltaMatchesScalar) {
  if (!has_vector_) GTEST_SKIP() << "no vector target on this CPU";
  simd::SetSimdTargetForTest(vector_target_);
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(5000 + id);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* b = kc.b.data() + kc.offset;
    const uint64_t* c = kc.c.data() + kc.offset;
    EXPECT_EQ(simd::ActiveKernels().or_and_popcount_delta(a, b, c, kc.n),
              simd::ScalarOrAndPopcountDelta(a, b, c, kc.n))
        << "case_id=" << 5000 + id;
  }
}

TEST_F(SimdKernelTest, OrAndBcastStoreDeltaMatchesScalar) {
  if (!has_vector_) GTEST_SKIP() << "no vector target on this CPU";
  simd::SetSimdTargetForTest(vector_target_);
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(6000 + id);
    Rng rng = Rng(kSuiteSeed).Fork(60000 + id);
    uint64_t cand = RandomWord(&rng);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* b = kc.b.data() + kc.offset;
    std::vector<uint64_t> out_got(kc.n, 0xAA), out_want(kc.n, 0xAA);
    // Deltas start nonzero to prove the kernel accumulates (+=), not stores.
    std::vector<size_t> d_got(kc.n, 7), d_want(kc.n, 7);
    simd::ActiveKernels().or_and_bcast_store_delta(a, b, cand, out_got.data(),
                                                   d_got.data(), kc.n);
    simd::ScalarOrAndBcastStoreDelta(a, b, cand, out_want.data(),
                                     d_want.data(), kc.n);
    EXPECT_EQ(out_got, out_want) << "case_id=" << 6000 + id;
    EXPECT_EQ(d_got, d_want) << "case_id=" << 6000 + id;
  }
}

TEST_F(SimdKernelTest, AndNotBcastStoreDeltaMatchesScalar) {
  if (!has_vector_) GTEST_SKIP() << "no vector target on this CPU";
  simd::SetSimdTargetForTest(vector_target_);
  for (int id = 0; id < kRandomCases; ++id) {
    KernelCase kc = MakeCase(7000 + id);
    Rng rng = Rng(kSuiteSeed).Fork(70000 + id);
    uint64_t cand = RandomWord(&rng);
    const uint64_t* a = kc.a.data() + kc.offset;
    const uint64_t* b = kc.b.data() + kc.offset;
    std::vector<uint64_t> out_got(kc.n, 0xAA), out_want(kc.n, 0xAA);
    std::vector<size_t> d_got(kc.n, 7), d_want(kc.n, 7);
    simd::ActiveKernels().and_not_bcast_store_delta(a, b, cand, out_got.data(),
                                                    d_got.data(), kc.n);
    simd::ScalarAndNotBcastStoreDelta(a, b, cand, out_want.data(),
                                      d_want.data(), kc.n);
    EXPECT_EQ(out_got, out_want) << "case_id=" << 7000 + id;
    EXPECT_EQ(d_got, d_want) << "case_id=" << 7000 + id;
  }
}

// --- Directed edges (run on whatever target dispatch resolved to) --------

TEST(SimdKernelDirectedTest, ZeroLengthSpans) {
  std::vector<uint64_t> w = {~uint64_t{0}};
  EXPECT_EQ(simd::SpanPopcount(w.data(), 0), 0u);
  EXPECT_EQ(simd::AndPopcount(w.data(), w.data(), 0), 0u);
  EXPECT_EQ(simd::OrPopcountDelta(w.data(), w.data(), 0), 0u);
  EXPECT_EQ(simd::OrAndPopcountDelta(w.data(), w.data(), w.data(), 0), 0u);
  simd::OrAndBcastStoreDelta(w.data(), w.data(), 0, w.data(), nullptr, 0);
  simd::AndNotBcastStoreDelta(w.data(), w.data(), 0, w.data(), nullptr, 0);
  EXPECT_EQ(w[0], ~uint64_t{0});  // untouched
}

TEST(SimdKernelDirectedTest, SingleWord) {
  uint64_t a = 0xF0F0F0F0F0F0F0F0ULL;
  uint64_t c = 0x0F0FFFFF00000F0FULL;
  EXPECT_EQ(simd::SpanPopcount(&a, 1), 32u);
  EXPECT_EQ(simd::AndPopcount(&a, &c, 1),
            static_cast<size_t>(std::popcount(a & c)));
  EXPECT_EQ(simd::OrPopcountDelta(&a, &c, 1),
            static_cast<size_t>(std::popcount(c & ~a)));
}

TEST(SimdKernelDirectedTest, AllOnesSpans) {
  for (size_t n : {1, 7, 8, 9, 31, 32, 33, 1024}) {
    std::vector<uint64_t> ones(n, ~uint64_t{0});
    EXPECT_EQ(simd::SpanPopcount(ones.data(), n), 64 * n) << "n=" << n;
    EXPECT_EQ(simd::AndPopcount(ones.data(), ones.data(), n), 64 * n);
    // Everything already set: OR lifts nothing.
    EXPECT_EQ(simd::OrPopcountDelta(ones.data(), ones.data(), n), 0u);
  }
}

TEST(SimdKernelDirectedTest, UnalignedHeadAndTail) {
  // Same span evaluated at every start offset within an over-allocated
  // buffer: results must not depend on pointer alignment.
  constexpr size_t kN = 67;
  std::vector<uint64_t> buf(kN + 8);
  Rng rng = Rng(kSuiteSeed).Fork(999);
  for (auto& w : buf) w = rng.Next();
  for (size_t off = 0; off < 8; ++off) {
    std::vector<uint64_t> shifted(buf.begin() + off, buf.begin() + off + kN);
    EXPECT_EQ(simd::SpanPopcount(buf.data() + off, kN),
              simd::ScalarSpanPopcount(shifted.data(), kN))
        << "offset=" << off;
  }
}

TEST(SimdKernelDirectedTest, WordBoundaryStraddles) {
  // Lengths crossing every internal block boundary of the unrolled loops.
  for (size_t n = 0; n <= 70; ++n) {
    std::vector<uint64_t> a(n), c(n);
    Rng rng = Rng(kSuiteSeed).Fork(5000 + n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Next();
      c[i] = rng.Next() | rng.Next();
    }
    EXPECT_EQ(simd::SpanPopcount(a.data(), n),
              simd::ScalarSpanPopcount(a.data(), n))
        << "n=" << n;
    EXPECT_EQ(simd::OrAndPopcountDelta(a.data(), c.data(), c.data(), n),
              simd::ScalarOrAndPopcountDelta(a.data(), c.data(), c.data(), n))
        << "n=" << n;
  }
}

TEST(SimdKernelDirectedTest, TargetIntrospection) {
  simd::Target t = simd::ActiveTarget();
  EXPECT_TRUE(simd::TargetSupported(t));
  EXPECT_STREQ(simd::TargetName(), simd::TargetName(t));
  EXPECT_TRUE(simd::TargetSupported(simd::Target::kScalar));
  // Requesting an unsupported target clamps to scalar instead of crashing.
  simd::Target unsupported = simd::TargetSupported(simd::Target::kAvx2)
                                 ? simd::Target::kNeon
                                 : simd::Target::kAvx2;
  if (!simd::TargetSupported(unsupported)) {
    EXPECT_EQ(simd::SetSimdTargetForTest(unsupported), simd::Target::kScalar);
  }
  simd::SetSimdTargetForTest(t);  // restore
}

// --- EvalArena ------------------------------------------------------------

TEST(EvalArenaTest, AllocationsAreDisjointAndAligned) {
  EvalArena arena;
  arena.Reserve(1024);
  uint64_t* a = arena.Alloc<uint64_t>(100);
  uint32_t* b = arena.Alloc<uint32_t>(7);  // odd count: rounds to words
  uint64_t* c = arena.Alloc<uint64_t>(1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 64, 0u);  // block alignment
  for (size_t i = 0; i < 100; ++i) a[i] = 1;
  for (size_t i = 0; i < 7; ++i) b[i] = 2;
  *c = 3;
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(a[i], 1u);
  for (size_t i = 0; i < 7; ++i) EXPECT_EQ(b[i], 2u);
  EXPECT_EQ(*c, 3u);
  // 7 uint32s occupy 28 bytes, rounded up to 4 whole words.
  EXPECT_EQ(arena.used_words(), 100u + 4u + 1u);
}

TEST(EvalArenaTest, ResetReusesTheBlock) {
  EvalArena arena;
  arena.Reserve(64);
  uint64_t* first = arena.Alloc<uint64_t>(32);
  size_t cap = arena.capacity_words();
  arena.Reset();
  EXPECT_EQ(arena.used_words(), 0u);
  uint64_t* again = arena.Alloc<uint64_t>(32);
  EXPECT_EQ(first, again);  // same block, no reallocation
  EXPECT_EQ(arena.capacity_words(), cap);
}

TEST(EvalArenaTest, BackstopGrowPreservesLivePrefix) {
  EvalArena arena;
  arena.Reserve(8);
  uint64_t* a = arena.Alloc<uint64_t>(8);
  for (size_t i = 0; i < 8; ++i) a[i] = 100 + i;
  // Under-reserved: this Alloc must grow, copying the live prefix.
  uint64_t* b = arena.Alloc<uint64_t>(1024);
  b[0] = 1;
  uint64_t* base = reinterpret_cast<uint64_t*>(b) - 8;
  for (size_t i = 0; i < 8; ++i) EXPECT_EQ(base[i], 100 + i);
}

TEST(EvalArenaTest, MoveTransfersOwnership) {
  EvalArena arena;
  arena.Reserve(16);
  uint64_t* p = arena.Alloc<uint64_t>(4);
  p[0] = 42;
  EvalArena other = std::move(arena);
  EXPECT_EQ(other.used_words(), 4u);
  EvalArena third;
  third = std::move(other);
  EXPECT_EQ(third.used_words(), 4u);
}

}  // namespace
}  // namespace thrifty
