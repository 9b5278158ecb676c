// Parallel experiment execution: fans independent trials across a worker
// pool and merges their results in trial order, so a sweep's output is
// bit-identical for any --jobs value.

#ifndef THRIFTY_BENCH_SWEEP_RUNNER_H_
#define THRIFTY_BENCH_SWEEP_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"

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

 private:
  /// \brief Executes `body` once per trial with the deterministic
  /// per-trial context, in parallel when jobs > 1.
  void RunIndexed(size_t num_trials,
                  const std::function<void(TrialContext&)>& body) const;

  SweepOptions options_;
};

}  // namespace thrifty

#endif  // THRIFTY_BENCH_SWEEP_RUNNER_H_
