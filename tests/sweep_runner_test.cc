#include "sweep_runner.h"

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace thrifty {
namespace {

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

}  // namespace
}  // namespace thrifty
