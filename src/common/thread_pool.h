// Fixed-size worker pool and the one parallel loop that runs on it.

#ifndef THRIFTY_COMMON_THREAD_POOL_H_
#define THRIFTY_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace thrifty {

/// \brief Fixed-size pool of worker threads draining a FIFO task queue.
///
/// Work reaches the pool only through ParallelFor, whose tasks catch their
/// own exceptions. Destruction drains every already-submitted task, then
/// joins all workers.
class ThreadPool {
 public:
  /// \param num_threads worker count; must be at least 1 (MakeThreadPool
  /// never asks for fewer).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Number of worker threads.
  size_t size() const { return workers_.size(); }

 private:
  friend void ParallelFor(ThreadPool* pool, size_t n,
                          const std::function<void(size_t)>& fn);

  /// \brief Enqueues `task` for execution on some worker; `task` must not
  /// throw. Submitting from inside a task is allowed; submitting during
  /// destruction is not.
  void Submit(std::function<void()> task);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// \brief The pool for a ParallelFor `jobs` threads wide: null (run inline)
/// when jobs <= 1, else jobs - 1 workers, since the calling thread drains
/// too.
std::unique_ptr<ThreadPool> MakeThreadPool(int jobs);

/// \brief Runs `fn(i)` for every i in [0, n), on the pool's workers plus
/// the calling thread.
///
/// Work items are drained from a shared atomic counter, so the partition of
/// indices across threads is load-balanced and scheduling-dependent — `fn`
/// must therefore write only to per-index state (callers that need a
/// deterministic result reduce the per-index slots afterwards, in index
/// order). The calling thread participates and helper tasks are
/// fire-and-forget (they keep the shared state alive and exit as soon as no
/// index remains), so nesting ParallelFor inside a pool task cannot
/// deadlock: the innermost caller drains its own work even when every
/// worker is busy.
///
/// A null `pool` (or n <= 1) runs everything inline on the calling thread.
/// If one or more invocations throw, every index still runs and the
/// exception of the lowest failing index is rethrown.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn);

}  // namespace thrifty

#endif  // THRIFTY_COMMON_THREAD_POOL_H_
