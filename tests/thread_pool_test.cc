#include "common/thread_pool.h"

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace thrifty {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  ParallelFor(&pool, 100, [&counter](size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  // A ParallelFor helper can still be queued when the call returns (the
  // caller drained every index first). Each helper holds the loop's shared
  // state, which owns a copy of `fn` and so of `token`; once the pool is
  // destroyed no helper may be left holding it.
  auto token = std::make_shared<int>(0);
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int call = 0; call < 50; ++call) {
      ParallelFor(&pool, 3, [token, &counter](size_t) { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 150);
  EXPECT_EQ(token.use_count(), 1);
}

TEST(ThreadPoolTest, TasksRunOffTheCallingThread) {
  // The caller claims at most one of the two indices and then waits inside
  // it until the other has run, which only a worker can do.
  ThreadPool pool(2);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> worker_ran{false};
  ParallelFor(&pool, 2, [&](size_t) {
    if (std::this_thread::get_id() != caller) {
      worker_ran = true;
      return;
    }
    while (!worker_ran.load()) std::this_thread::yield();
  });
  EXPECT_TRUE(worker_ran.load());
}

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  // MakeThreadPool(jobs) is null up to 1 job and otherwise leaves one of
  // the jobs to the calling thread.
  for (int jobs : {0, 1, 2, 4}) {
    std::unique_ptr<ThreadPool> pool = MakeThreadPool(jobs);
    if (jobs <= 1) {
      EXPECT_EQ(pool, nullptr) << "jobs=" << jobs;
    } else {
      ASSERT_NE(pool, nullptr) << "jobs=" << jobs;
      EXPECT_EQ(pool->size(), static_cast<size_t>(jobs - 1));
    }
    std::vector<std::atomic<int>> hits(1000);
    ParallelFor(pool.get(), hits.size(), [&](size_t i) { ++hits[i]; });
    for (const auto& hit : hits) EXPECT_EQ(hit.load(), 1) << "jobs=" << jobs;
  }
}

TEST(ParallelForTest, NullPoolRunsInlineInOrder) {
  std::vector<size_t> order;
  std::thread::id caller = std::this_thread::get_id();
  ParallelFor(nullptr, 5, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, HandlesZeroAndSingleIteration) {
  ThreadPool pool(2);
  int calls = 0;
  ParallelFor(&pool, 0, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  ParallelFor(&pool, 1, [&](size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelForTest, NestedCallsOnOnePoolDoNotDeadlock) {
  // Tasks that wait on sub-work queued behind them would deadlock a naive
  // future-join; ParallelFor's caller-participates drain must not.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(&pool, 4, [&](size_t) {
    ParallelFor(&pool, 8, [&](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 32);
}

TEST(ParallelForTest, RethrowsLowestIndexException) {
  ThreadPool pool(4);
  for (int attempt = 0; attempt < 20; ++attempt) {
    try {
      ParallelFor(&pool, 100, [&](size_t i) {
        if (i == 7 || i == 93) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "expected ParallelFor to rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 7");
    }
  }
}

TEST(ParallelForTest, KeepsRunningRemainingIndicesAfterAnException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(ParallelFor(&pool, 50,
                           [&](size_t i) {
                             ++ran;
                             if (i == 0) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 50);
}

}  // namespace
}  // namespace thrifty
