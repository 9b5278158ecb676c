#include "common/thread_pool.h"

#include <atomic>
#include <cassert>
#include <cstdint>
#include <exception>
#include <memory>
#include <utility>

namespace thrifty {

ThreadPool::ThreadPool(int num_threads) {
  assert(num_threads >= 1);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ set and queue drained
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

std::unique_ptr<ThreadPool> MakeThreadPool(int jobs) {
  if (jobs <= 1) return nullptr;
  return std::make_unique<ThreadPool>(jobs - 1);
}

namespace {

/// Shared state of one ParallelFor: helpers hold it via shared_ptr so a
/// helper scheduled after the caller has already drained every index (and
/// returned) still touches live memory.
struct ParallelForState {
  ParallelForState(size_t total, const std::function<void(size_t)>& body)
      : n(total), fn(body) {}

  const size_t n;
  std::function<void(size_t)> fn;
  std::atomic<size_t> next{0};

  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  size_t error_index = SIZE_MAX;
  std::exception_ptr error;

  /// Claims and runs indices until none remain. Every claimed index counts
  /// toward `done` even when fn throws, so the caller's wait terminates.
  void Drain() {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      std::exception_ptr caught;
      try {
        fn(i);
      } catch (...) {
        caught = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (caught && i < error_index) {
        error_index = i;
        error = std::move(caught);  // the helper keeps no reference
      }
      if (++done == n) cv.notify_all();
    }
  }
};

}  // namespace

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn) {
  if (pool == nullptr || pool->size() == 0 || n <= 1) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto state = std::make_shared<ParallelForState>(n, fn);
  size_t helpers = pool->size() < n - 1 ? pool->size() : n - 1;
  for (size_t h = 0; h < helpers; ++h) {
    pool->Submit([state] { state->Drain(); });  // fire-and-forget
  }
  state->Drain();
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done == state->n; });
    // Take the exception out of the shared state under the lock: a helper
    // may drop the last reference to `state` at any time, and the caller
    // must then be the exception's only owner (its refcount is invisible
    // to TSan, so it cannot order that destruction after our reads).
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace thrifty
