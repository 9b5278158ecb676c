#include "sweep_runner.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace thrifty {
namespace {

// A trial body with enough arithmetic that any ordering or stream mixup
// would change the merged numbers.
void RecordTrial(TrialContext& context, TrialRecorder& recorder) {
  RunningStats& latency = recorder.Stats("latency");
  Histogram& hist = recorder.Hist("normalized", 0.01, 1.02);
  for (int draw = 0; draw < 200; ++draw) {
    double v = context.rng.NextExponential(1.0 + 0.1 * static_cast<double>(
                                                       context.trial_index));
    latency.Add(v);
    hist.Add(v);
  }
  recorder.Stats("per_trial_mean").Add(latency.Mean());
}

TrialRecorder RunSweep(int jobs) {
  SweepRunner runner({jobs, /*seed=*/1234});
  return runner.Run(16, RecordTrial);
}

TEST(SweepRunnerTest, MergedStatsBitIdenticalAcrossJobCounts) {
  TrialRecorder serial = RunSweep(1);
  TrialRecorder parallel = RunSweep(4);
  TrialRecorder oversubscribed = RunSweep(32);  // more workers than trials

  for (const TrialRecorder* other : {&parallel, &oversubscribed}) {
    const RunningStats& a = serial.stats().at("latency");
    const RunningStats& b = other->stats().at("latency");
    EXPECT_EQ(a.count(), b.count());
    // Bit-identical, not approximately equal: merge order is trial order
    // regardless of completion order, so every intermediate rounding step
    // is the same.
    EXPECT_EQ(a.Mean(), b.Mean());
    EXPECT_EQ(a.Variance(), b.Variance());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(serial.stats().at("per_trial_mean").Mean(),
              other->stats().at("per_trial_mean").Mean());
    const Histogram& ha = serial.hists().at("normalized");
    const Histogram& hb = other->hists().at("normalized");
    EXPECT_EQ(ha.count(), hb.count());
    EXPECT_EQ(ha.sum(), hb.sum());
    EXPECT_EQ(ha.Percentile(0.5), hb.Percentile(0.5));
    EXPECT_EQ(ha.Percentile(0.999), hb.Percentile(0.999));
    EXPECT_EQ(ha.FractionAtMost(1.0), hb.FractionAtMost(1.0));
  }
}

TEST(SweepRunnerTest, MapReturnsResultsInTrialOrder) {
  SweepRunner runner({4, 7});
  std::vector<size_t> indices = runner.Map<size_t>(
      16, [](TrialContext& context) { return context.trial_index; });
  for (size_t i = 0; i < indices.size(); ++i) EXPECT_EQ(indices[i], i);
}

TEST(SweepRunnerTest, ThrowingTrialSurfacesWithoutDeadlock) {
  SweepRunner runner({4, 42});
  std::atomic<int> completed{0};
  auto body = [&completed](TrialContext& context) -> int {
    if (context.trial_index == 7 || context.trial_index == 11) {
      throw std::runtime_error(context.trial_index == 7 ? "trial 7"
                                                        : "trial 11");
    }
    ++completed;
    return 1;
  };
  try {
    runner.Map<int>(16, body);
    FAIL() << "expected the trial exception to propagate";
  } catch (const std::runtime_error& e) {
    // The lowest-indexed failure wins deterministically.
    EXPECT_STREQ(e.what(), "trial 7");
  }
  // Every non-throwing trial still ran: the pool drained instead of
  // deadlocking or abandoning queued work.
  EXPECT_EQ(completed.load(), 14);

  // And the runner remains usable afterwards.
  std::vector<int> ok = runner.Map<int>(4, [](TrialContext&) { return 3; });
  EXPECT_EQ(ok, (std::vector<int>{3, 3, 3, 3}));
}

TEST(SweepRunnerTest, TrialStreamsDependOnlyOnSeedAndIndex) {
  // Record each trial's first draws under three execution regimes; the
  // streams must match Rng(seed).Fork(index) exactly, independent of which
  // worker ran the trial or in what order.
  auto collect = [](int jobs, uint64_t seed) {
    SweepRunner runner({jobs, seed});
    return runner.Map<std::vector<uint64_t>>(
        16, [](TrialContext& context) {
          std::vector<uint64_t> draws;
          for (int i = 0; i < 4; ++i) draws.push_back(context.rng.Next());
          return draws;
        });
  };
  auto serial = collect(1, 99);
  auto parallel = collect(4, 99);
  auto chaotic = collect(16, 99);
  Rng root(99);
  for (size_t i = 0; i < 16; ++i) {
    Rng expected = root.Fork(i);
    for (int d = 0; d < 4; ++d) {
      uint64_t want = expected.Next();
      EXPECT_EQ(serial[i][static_cast<size_t>(d)], want);
      EXPECT_EQ(parallel[i][static_cast<size_t>(d)], want);
      EXPECT_EQ(chaotic[i][static_cast<size_t>(d)], want);
    }
  }
  // Distinct trials get distinct streams.
  EXPECT_NE(serial[0], serial[1]);
  // Distinct seeds get distinct streams.
  EXPECT_NE(collect(1, 100)[0], serial[0]);
}

TEST(SweepRunnerTest, RecorderMergeHandlesDisjointNames) {
  SweepRunner runner({2, 5});
  TrialRecorder merged = runner.Run(4, [](TrialContext& context,
                                          TrialRecorder& recorder) {
    if (context.trial_index % 2 == 0) {
      recorder.Stats("even").Add(static_cast<double>(context.trial_index));
      recorder.Hist("even_hist").Add(1.0);
    } else {
      recorder.Stats("odd").Add(static_cast<double>(context.trial_index));
    }
  });
  EXPECT_EQ(merged.stats().at("even").count(), 2u);
  EXPECT_EQ(merged.stats().at("odd").count(), 2u);
  EXPECT_EQ(merged.hists().at("even_hist").count(), 2u);
  EXPECT_DOUBLE_EQ(merged.stats().at("odd").Mean(), 2.0);
}

}  // namespace
}  // namespace thrifty
