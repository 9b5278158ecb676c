#include "sweep_runner.h"

#include <algorithm>
#include <exception>
#include <future>
#include <utility>

#include "common/thread_pool.h"

namespace thrifty {

RunningStats& TrialRecorder::Stats(const std::string& name) {
  return stats_[name];
}

Histogram& TrialRecorder::Hist(const std::string& name, double min_value,
                               double growth) {
  auto it = hists_.find(name);
  if (it == hists_.end()) {
    it = hists_.emplace(name, Histogram(min_value, growth)).first;
  }
  return it->second;
}

void TrialRecorder::Merge(const TrialRecorder& other) {
  for (const auto& [name, stats] : other.stats_) {
    stats_[name].Merge(stats);
  }
  for (const auto& [name, hist] : other.hists_) {
    auto it = hists_.find(name);
    if (it == hists_.end()) {
      hists_.emplace(name, hist);
    } else {
      it->second.Merge(hist);
    }
  }
}

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

TrialRecorder SweepRunner::Run(
    size_t num_trials,
    const std::function<void(TrialContext&, TrialRecorder&)>& fn) const {
  std::vector<TrialRecorder> recorders(num_trials);
  RunIndexed(num_trials, [&](TrialContext& context) {
    fn(context, recorders[context.trial_index]);
  });
  TrialRecorder merged;
  for (const TrialRecorder& recorder : recorders) merged.Merge(recorder);
  return merged;
}

}  // namespace thrifty
