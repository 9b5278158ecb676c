#include "common/bitmap.h"

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace thrifty {
namespace {

TEST(BitmapTest, StartsAllZero) {
  DynamicBitmap b(100);
  EXPECT_EQ(b.num_bits(), 100u);
  EXPECT_EQ(b.num_words(), 2u);
  EXPECT_EQ(b.Popcount(), 0u);
}

TEST(BitmapTest, SetGetClear) {
  DynamicBitmap b(130);
  b.Set(0);
  b.Set(63);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Get(0));
  EXPECT_TRUE(b.Get(63));
  EXPECT_TRUE(b.Get(64));
  EXPECT_TRUE(b.Get(129));
  EXPECT_FALSE(b.Get(1));
  EXPECT_EQ(b.Popcount(), 4u);
  b.Clear(63);
  EXPECT_FALSE(b.Get(63));
  EXPECT_EQ(b.Popcount(), 3u);
}

TEST(BitmapTest, SetRangeWithinOneWord) {
  DynamicBitmap b(64);
  b.SetRange(3, 7);
  EXPECT_EQ(b.Popcount(), 4u);
  EXPECT_FALSE(b.Get(2));
  EXPECT_TRUE(b.Get(3));
  EXPECT_TRUE(b.Get(6));
  EXPECT_FALSE(b.Get(7));
}

TEST(BitmapTest, SetRangeAcrossWords) {
  DynamicBitmap b(200);
  b.SetRange(60, 140);
  EXPECT_EQ(b.Popcount(), 80u);
  EXPECT_FALSE(b.Get(59));
  EXPECT_TRUE(b.Get(60));
  EXPECT_TRUE(b.Get(139));
  EXPECT_FALSE(b.Get(140));
}

TEST(BitmapTest, SetRangeClampsToSize) {
  DynamicBitmap b(70);
  b.SetRange(65, 1000);
  EXPECT_EQ(b.Popcount(), 5u);
}

TEST(BitmapTest, SetRangeEmptyIsNoop) {
  DynamicBitmap b(64);
  b.SetRange(10, 10);
  b.SetRange(20, 5);
  EXPECT_EQ(b.Popcount(), 0u);
}

class BitmapRangeSweep
    : public ::testing::TestWithParam<std::pair<size_t, size_t>> {};

TEST_P(BitmapRangeSweep, SetRangeMatchesBitByBit) {
  auto [begin, end] = GetParam();
  DynamicBitmap fast(300);
  fast.SetRange(begin, end);
  DynamicBitmap slow(300);
  for (size_t i = begin; i < std::min<size_t>(end, 300); ++i) slow.Set(i);
  EXPECT_EQ(fast, slow);
}

INSTANTIATE_TEST_SUITE_P(
    Ranges, BitmapRangeSweep,
    ::testing::Values(std::pair<size_t, size_t>{0, 1},
                      std::pair<size_t, size_t>{0, 64},
                      std::pair<size_t, size_t>{0, 65},
                      std::pair<size_t, size_t>{63, 64},
                      std::pair<size_t, size_t>{63, 65},
                      std::pair<size_t, size_t>{64, 128},
                      std::pair<size_t, size_t>{1, 299},
                      std::pair<size_t, size_t>{128, 300},
                      std::pair<size_t, size_t>{299, 300},
                      std::pair<size_t, size_t>{100, 100}));

TEST(BitmapTest, RandomizedAgainstReference) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    size_t n = 1 + rng.NextBounded(500);
    DynamicBitmap b(n);
    std::vector<bool> truth(n, false);
    for (int op = 0; op < 100; ++op) {
      size_t i = rng.NextBounded(n);
      if (rng.NextBool(0.7)) {
        b.Set(i);
        truth[i] = true;
      } else {
        b.Clear(i);
        truth[i] = false;
      }
    }
    size_t expected_pop = 0;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(b.Get(i), truth[i]);
      expected_pop += truth[i] ? 1 : 0;
    }
    EXPECT_EQ(b.Popcount(), expected_pop);
  }
}

TEST(BitmapTest, WordSpanPopcounts) {
  const std::vector<uint64_t> a = {0xff, 0, ~uint64_t{0}, 1};
  EXPECT_EQ(PopcountWords(a.data(), a.size()), 8u + 0 + 64 + 1);
  EXPECT_EQ(PopcountWords(a.data(), 0), 0u);
}

TEST(BitmapTest, WordSpanPopcountsMatchBitmapOps) {
  Rng rng(1234);
  DynamicBitmap a(777);
  for (int i = 0; i < 300; ++i) a.Set(rng.NextBounded(777));
  EXPECT_EQ(PopcountWords(a.data(), a.num_words()), a.Popcount());
}

}  // namespace
}  // namespace thrifty
