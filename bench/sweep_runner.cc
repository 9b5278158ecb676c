#include "sweep_runner.h"

#include <algorithm>
#include <exception>
#include <future>

#include "common/thread_pool.h"

namespace thrifty {

void SweepRunner::RunIndexed(
    size_t num_trials, const std::function<void(TrialContext&)>& body) const {
  const Rng root(options_.seed);  // Fork() is const and pure: shareable
  auto run_trial = [&](size_t i) {
    TrialContext context;
    context.trial_index = i;
    context.sweep_seed = options_.seed;
    context.rng = root.Fork(static_cast<uint64_t>(i));
    body(context);
  };

  if (options_.jobs <= 1 || num_trials <= 1) {
    for (size_t i = 0; i < num_trials; ++i) run_trial(i);
    return;
  }

  ThreadPool pool(static_cast<int>(std::min<size_t>(
      static_cast<size_t>(options_.jobs), num_trials)));
  std::vector<std::future<void>> futures;
  futures.reserve(num_trials);
  for (size_t i = 0; i < num_trials; ++i) {
    futures.push_back(pool.Submit([&run_trial, i] { run_trial(i); }));
  }
  // Drain every trial before rethrowing so no worker still references the
  // caller's frame; the lowest-indexed failure wins, deterministically.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace thrifty
