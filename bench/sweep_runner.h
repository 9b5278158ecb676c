// Parallel experiment execution: fans independent trials across a worker
// pool and merges their results in trial order, so a sweep's output is
// bit-identical for any --jobs value.

#ifndef THRIFTY_BENCH_SWEEP_RUNNER_H_
#define THRIFTY_BENCH_SWEEP_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/stats.h"

namespace thrifty {

/// \brief Sweep-wide execution options.
struct SweepOptions {
  /// Worker threads; 1 runs every trial inline on the calling thread.
  int jobs = 1;
  /// Base seed; trial i's RNG stream is Rng(seed).Fork(i).
  uint64_t seed = 42;
};

/// \brief Per-trial context handed to the trial body.
struct TrialContext {
  size_t trial_index = 0;
  uint64_t sweep_seed = 0;
  /// Private deterministic stream, a function of (sweep seed, trial index)
  /// only — never of scheduling order or job count.
  Rng rng{0};
};

/// \brief Named RunningStats/Histogram accumulators filled by one trial and
/// merged across trials in trial order.
class TrialRecorder {
 public:
  /// \brief The stats accumulator `name`, created on first use.
  RunningStats& Stats(const std::string& name);

  /// \brief The histogram `name`; bucket parameters apply on first use and
  /// must match across trials (Histogram::Merge requirement).
  Histogram& Hist(const std::string& name, double min_value = 1.0,
                  double growth = 1.05);

  /// \brief Folds another recorder's accumulators into this one.
  void Merge(const TrialRecorder& other);

  const std::map<std::string, RunningStats>& stats() const { return stats_; }
  const std::map<std::string, Histogram>& hists() const { return hists_; }

 private:
  std::map<std::string, RunningStats> stats_;
  std::map<std::string, Histogram> hists_;
};

/// \brief Runs N independent trials, optionally across a thread pool.
///
/// Each trial must own all mutable state it touches (its own SimEngine,
/// Cluster, ThriftyService, ...); shared inputs must be const. Results are
/// collected by trial index and merged in that order, so `--jobs=1` and
/// `--jobs=N` produce bit-identical output.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options) : options_(options) {}

  const SweepOptions& options() const { return options_; }

  /// \brief Runs `fn` for every trial in [0, num_trials); returns the
  /// results indexed by trial. Result must be default-constructible.
  ///
  /// If one or more trials throw, every remaining trial still runs to
  /// completion (no deadlocked workers, no dangling references) and the
  /// exception of the lowest-indexed failing trial is rethrown.
  template <typename Result>
  std::vector<Result> Map(size_t num_trials,
                          const std::function<Result(TrialContext&)>& fn) const {
    std::vector<Result> results(num_trials);
    RunIndexed(num_trials, [&](TrialContext& context) {
      results[context.trial_index] = fn(context);
    });
    return results;
  }

  /// \brief Runs `fn(context, recorder)` per trial and merges the per-trial
  /// recorders in trial order.
  TrialRecorder Run(
      size_t num_trials,
      const std::function<void(TrialContext&, TrialRecorder&)>& fn) const;

 private:
  /// \brief Shared driver: executes `body` once per trial with the
  /// deterministic per-trial context, in parallel when jobs > 1.
  void RunIndexed(size_t num_trials,
                  const std::function<void(TrialContext&)>& body) const;

  SweepOptions options_;
};

}  // namespace thrifty

#endif  // THRIFTY_BENCH_SWEEP_RUNNER_H_
