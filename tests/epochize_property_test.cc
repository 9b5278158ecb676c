// Randomized equivalence harness for the streamed epochization engine:
// StreamedEpochizer and EpochizeIntervals must produce exactly the nonzero
// words of the dense discretization test oracle (IntervalsToBitmap) over
// generated interval sets — word-boundary straddles, zero-length and
// adjacent intervals, intervals touching EpochConfig::end, and single-epoch
// grids included. Every randomized case derives its generator from an
// id-keyed Rng fork, so a failure names the case id and replays
// deterministically.

#include "activity/streamed_epochizer.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "oracles/dense_epochizer.h"

namespace thrifty {
namespace {

struct Words {
  std::vector<uint32_t> indices;
  std::vector<uint64_t> bits;

  bool operator==(const Words& other) const = default;
};

Words DenseWords(const IntervalSet& set, const EpochConfig& epochs) {
  DynamicBitmap dense = IntervalsToBitmap(set, epochs);
  Words words;
  for (size_t w = 0; w < dense.num_words(); ++w) {
    if (dense.word(w) != 0) {
      words.indices.push_back(static_cast<uint32_t>(w));
      words.bits.push_back(dense.word(w));
    }
  }
  return words;
}

Words IteratorWords(const IntervalSet& set, const EpochConfig& epochs) {
  Words words;
  StreamedEpochizer stream(set, epochs);
  uint32_t index;
  uint64_t bits;
  while (stream.Next(&index, &bits)) {
    words.indices.push_back(index);
    words.bits.push_back(bits);
  }
  return words;
}

/// Asserts the full streamed/dense contract for one (set, grid) pair.
void ExpectStreamedMatchesDense(const IntervalSet& set,
                                const EpochConfig& epochs) {
  const Words expected = DenseWords(set, epochs);
  EXPECT_EQ(IteratorWords(set, epochs), expected);

  const ActivityVector streamed = EpochizeIntervals(7, set, epochs);
  const ActivityVector reference =
      ActivityVector::FromBitmap(7, IntervalsToBitmap(set, epochs));
  EXPECT_EQ(streamed.tenant_id(), reference.tenant_id());
  EXPECT_EQ(streamed.num_epochs(), reference.num_epochs());
  EXPECT_EQ(streamed.word_indices(), reference.word_indices());
  EXPECT_EQ(streamed.word_bits(), reference.word_bits());
  EXPECT_EQ(streamed.ActiveEpochs(), reference.ActiveEpochs());
}

TEST(StreamedEpochizerTest, EmptySetYieldsNoWords) {
  EpochConfig epochs{10 * kSecond, 0, 1000 * kSecond};
  IntervalSet set;
  EXPECT_TRUE(IteratorWords(set, epochs).indices.empty());
  ExpectStreamedMatchesDense(set, epochs);
}

TEST(StreamedEpochizerTest, WordBoundaryStraddle) {
  // One epoch per second over 130 epochs; an interval covering epochs
  // 62..65 must split across words 0 and 1 with the straddling bits exact.
  EpochConfig epochs{kSecond, 0, 130 * kSecond};
  IntervalSet set;
  set.Add(62 * kSecond, 66 * kSecond);
  Words words = IteratorWords(set, epochs);
  ASSERT_EQ(words.indices, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(words.bits[0], (uint64_t{1} << 62) | (uint64_t{1} << 63));
  EXPECT_EQ(words.bits[1], uint64_t{1} | (uint64_t{1} << 1));
  ExpectStreamedMatchesDense(set, epochs);
}

TEST(StreamedEpochizerTest, AdjacentIntervalsMergeIntoOneWordRun) {
  // [10, 20) and [20, 30) coalesce in the IntervalSet; [40, 41) and
  // [41.5, 42) stay separate intervals but share epoch 4's word.
  EpochConfig epochs{10 * kSecond, 0, 640 * kSecond};
  IntervalSet set;
  set.Add(10 * kSecond, 20 * kSecond);
  set.Add(20 * kSecond, 30 * kSecond);
  set.Add(400 * kSecond, 410 * kSecond);
  set.Add(415 * kSecond, 420 * kSecond);
  Words words = IteratorWords(set, epochs);
  ASSERT_EQ(words.indices, (std::vector<uint32_t>{0}));
  EXPECT_EQ(words.bits[0], (uint64_t{1} << 1) | (uint64_t{1} << 2) |
                               (uint64_t{1} << 40) | (uint64_t{1} << 41));
  ExpectStreamedMatchesDense(set, epochs);
}

TEST(StreamedEpochizerTest, ZeroLengthIntervalsAreIgnored) {
  EpochConfig epochs{10 * kSecond, 0, 100 * kSecond};
  IntervalSet set;
  set.Add(30 * kSecond, 30 * kSecond);  // empty: dropped by IntervalSet
  set.Add(50 * kSecond, 51 * kSecond);
  Words words = IteratorWords(set, epochs);
  ASSERT_EQ(words.indices.size(), 1u);
  EXPECT_EQ(words.bits[0], uint64_t{1} << 5);
  ExpectStreamedMatchesDense(set, epochs);
}

TEST(StreamedEpochizerTest, IntervalsTouchingGridEnd) {
  EpochConfig epochs{10 * kSecond, 0, 95 * kSecond};
  {
    // Ends exactly at the (clamped) grid end: occupies the last epoch.
    IntervalSet set;
    set.Add(90 * kSecond, 95 * kSecond);
    Words words = IteratorWords(set, epochs);
    ASSERT_EQ(words.indices.size(), 1u);
    EXPECT_EQ(words.bits[0], uint64_t{1} << 9);
    ExpectStreamedMatchesDense(set, epochs);
  }
  {
    // Starts exactly at the grid end: contributes nothing.
    IntervalSet set;
    set.Add(95 * kSecond, 200 * kSecond);
    EXPECT_TRUE(IteratorWords(set, epochs).indices.empty());
    ExpectStreamedMatchesDense(set, epochs);
  }
  {
    // Straddles the end: clipped, and later intervals are ignored.
    IntervalSet set;
    set.Add(80 * kSecond, 300 * kSecond);
    set.Add(400 * kSecond, 500 * kSecond);
    Words words = IteratorWords(set, epochs);
    ASSERT_EQ(words.indices.size(), 1u);
    EXPECT_EQ(words.bits[0], (uint64_t{1} << 8) | (uint64_t{1} << 9));
    ExpectStreamedMatchesDense(set, epochs);
  }
}

TEST(StreamedEpochizerTest, SingleEpochGrid) {
  // Non-divisible single-epoch grid: every overlapping interval lands in
  // epoch 0, intervals outside contribute nothing.
  EpochConfig epochs{10 * kSecond, 0, 7 * kSecond};
  IntervalSet set;
  set.Add(-5 * kSecond, 1 * kSecond);
  set.Add(3 * kSecond, 4 * kSecond);
  Words words = IteratorWords(set, epochs);
  ASSERT_EQ(words.indices, (std::vector<uint32_t>{0}));
  EXPECT_EQ(words.bits[0], uint64_t{1});
  ExpectStreamedMatchesDense(set, epochs);
}

TEST(StreamedEpochizerTest, NonZeroGridBegin) {
  EpochConfig epochs{5 * kSecond, 100 * kSecond, 150 * kSecond};
  IntervalSet set;
  set.Add(0, 102 * kSecond);          // clipped at the front
  set.Add(148 * kSecond, 1 * kDay);   // clipped at the back
  Words words = IteratorWords(set, epochs);
  ASSERT_EQ(words.indices, (std::vector<uint32_t>{0}));
  EXPECT_EQ(words.bits[0], uint64_t{1} | (uint64_t{1} << 9));
  ExpectStreamedMatchesDense(set, epochs);
}

/// One randomized case: grid and interval population both derived from the
/// case-id-keyed fork, heavy on the adversarial shapes (word straddles,
/// boundary touches, zero-length adds, clusters of adjacent intervals).
void RunRandomizedCase(uint64_t case_id) {
  SCOPED_TRACE("case_id=" + std::to_string(case_id) +
               " (replay: Rng(0xE90C).Fork(case_id))");
  Rng rng = Rng(0xE90C).Fork(case_id);

  const SimDuration epoch_sizes[] = {1,           7,          100,
                                     kSecond,     kSecond / 2, 10 * kSecond};
  const SimDuration epoch_size =
      epoch_sizes[rng.NextBounded(sizeof(epoch_sizes) /
                                  sizeof(epoch_sizes[0]))];
  const SimTime begin = rng.NextBool(0.5) ? 0 : rng.NextInt(1, 1000);
  // Between a single epoch and several word-lengths of epochs, with a
  // non-divisible tail half the time.
  const size_t num_epochs = 1 + rng.NextBounded(300);
  SimTime end = begin + static_cast<SimTime>(num_epochs) * epoch_size;
  if (rng.NextBool(0.5) && epoch_size > 1) end -= rng.NextInt(1, epoch_size - 1);
  EpochConfig epochs{epoch_size, begin, end};
  ASSERT_TRUE(epochs.Valid());

  IntervalSet set;
  const int num_intervals = static_cast<int>(rng.NextBounded(40));
  for (int i = 0; i < num_intervals; ++i) {
    const SimTime span = end - begin;
    SimTime iv_begin = begin + rng.NextInt(-span / 4 - 1, span + span / 4);
    SimTime iv_end;
    switch (rng.NextBounded(5)) {
      case 0:  // zero-length
        iv_end = iv_begin;
        break;
      case 1:  // sub-epoch
        iv_end = iv_begin + rng.NextInt(0, epoch_size);
        break;
      case 2:  // multi-word run
        iv_end = iv_begin + rng.NextInt(0, 130 * epoch_size);
        break;
      case 3:  // touches the grid end exactly
        iv_end = end;
        break;
      default:  // a short cluster of adjacent intervals
        iv_end = iv_begin + rng.NextInt(1, 2 * epoch_size);
        set.Add(iv_begin, iv_end);
        iv_begin = iv_end;
        iv_end = iv_begin + rng.NextInt(1, 2 * epoch_size);
        break;
    }
    set.Add(iv_begin, iv_end);
  }
  ExpectStreamedMatchesDense(set, epochs);
}

TEST(StreamedEpochizerPropertyTest, RandomizedStreamedVsDense) {
  for (uint64_t case_id = 0; case_id < 400; ++case_id) {
    RunRandomizedCase(case_id);
    if (HasFatalFailure() || HasNonfatalFailure()) break;  // first repro only
  }
}

TEST(StreamedEpochizerTest, WorkingStateUndercutsDenseBitmap) {
  // E = 0.1 s over a 3-day horizon: d = 2 592 000 epochs, so the dense
  // discretization holds a ceil(d/64) * 8 = 324 000 B bitmap per tenant
  // while it builds one. The streamed walker's peak working state must
  // stay at least 2x below that, with identical output.
  const EpochConfig epochs{SecondsToDuration(0.1), 0, 3 * kDay};
  const size_t dense_bytes = (epochs.NumEpochs() + 63) / 64 * sizeof(uint64_t);
  ASSERT_EQ(dense_bytes, 324000u);
  EpochizeGauge gauge;
  Rng rng(0xE70C);
  for (TenantId id = 0; id < 8; ++id) {
    IntervalSet set;
    for (int burst = 0; burst < 20; ++burst) {
      SimTime begin = rng.NextInt(0, 3 * kDay - kHour);
      set.Add(begin, begin + rng.NextInt(kSecond, kHour));
    }
    const ActivityVector streamed = EpochizeIntervals(id, set, epochs, &gauge);
    const ActivityVector dense =
        ActivityVector::FromBitmap(id, IntervalsToBitmap(set, epochs));
    EXPECT_EQ(streamed.word_indices(), dense.word_indices());
    EXPECT_EQ(streamed.word_bits(), dense.word_bits());
  }
  EXPECT_GT(gauge.peak_bytes(), 0u);
  EXPECT_LE(2 * gauge.peak_bytes(), dense_bytes)
      << "streamed peak " << gauge.peak_bytes() << " B";
}

TEST(ActivityVectorFromWordsTest, AdoptsSparseStorage) {
  ActivityVector v = ActivityVector::FromWords(
      5, 200, {1, 3}, {uint64_t{1} << 2, uint64_t{0b101} << 60});
  EXPECT_EQ(v.tenant_id(), 5);
  EXPECT_EQ(v.num_epochs(), 200u);
  EXPECT_EQ(v.ActiveEpochs(), 3u);
  EXPECT_TRUE(v.Get(64 + 2));
  EXPECT_TRUE(v.Get(192 + 60));
  EXPECT_TRUE(v.Get(192 + 62));
  EXPECT_FALSE(v.Get(0));
}

}  // namespace
}  // namespace thrifty
