// Shared pieces of the three benchmark workloads: the repetition record the
// benchmark aggregates, workload sizes, statistics and input fingerprints.

#ifndef PERFBENCH_WORKLOAD_COMMON_H_
#define PERFBENCH_WORKLOAD_COMMON_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/fnv.h"
#include "core/thrifty.h"
#include "trace.h"

namespace perfbench {

/// One reported number.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Workload sizes. Full() is what the benchmark measures; Toy() runs every
/// workload and every output check in seconds, for the benchmark's tests.
struct Scale {
  // plan_batch
  int plan_tenants = 0;
  int plan_horizon_days = 14;
  int plan_shard_jobs = 4;
  // stream_churn
  int churn_initial_tenants = 0;
  int churn_cycles = 0;
  int churn_per_cycle = 10;
  int churn_drift_per_cycle = 5;
  int churn_fail_every = 50;
  int churn_horizon_days = 7;
  // serve_replay
  int serve_tenants = 0;
  int serve_horizon_days = 7;
  /// Query arrivals per timed simulator step.
  size_t serve_step_queries = 10000;
  int sessions_per_class = 25;

  static Scale Full();
  static Scale Toy();
};

/// What one repetition of a workload measured. The benchmark takes medians
/// over repetitions; every repetition regenerates its inputs from the seed.
struct Repetition {
  /// Seed -> first timed call.
  double setup_s = 0;
  /// Latency of each blocking call of the timed work, in ms.
  std::vector<double> call_ms;
  /// Wall time of the timed work and the items it processed.
  double work_s = 0;
  double items = 0;
  /// Process peak RSS at the end of the timed work, before the output
  /// checks. The first repetition's value is reported: later ones reuse its
  /// memory, and fragmentation across repetitions is not the workload's.
  double peak_rss_mb = 0;
  /// Exact quality numbers of the repetition's output.
  double effectiveness = 0;
  double sla_attainment = 0;
  /// Seed, input and output fingerprints: identical in every repetition.
  std::string fingerprint;
  /// Operations attempted and failed (service calls and output checks).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Human-readable description of each failure.
  std::vector<std::string> failures;
  /// Per-layer numbers (filled in traced repetitions only).
  std::vector<Metric> layer;

  /// Counts one operation; a non-OK status is a failure.
  void Count(const thrifty::Status& status, const std::string& what);
  /// Counts one output check.
  void Check(bool ok, const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Runs one repetition. Spans go to `tracer` when it is enabled. With
  /// `setup_only` the repetition stops after the setup, for extra setup_s
  /// samples.
  virtual Repetition Run(Tracer* tracer, bool setup_only) = 0;
  /// Checks made once per run, after every repetition, so their memory
  /// stays out of peak_rss_mb. Counts and per-layer numbers go to `rep`.
  virtual void FinalChecks(Tracer* tracer, Repetition* rep) {
    (void)tracer;
    (void)rep;
  }
};

std::unique_ptr<Workload> MakePlanBatch(uint64_t seed, const Scale& scale);
std::unique_ptr<Workload> MakeStreamChurn(uint64_t seed, const Scale& scale);
std::unique_ptr<Workload> MakeServeReplay(uint64_t seed, const Scale& scale);

// --- statistics -----------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Process peak resident set size in MiB.
double PeakRssMb();

/// The SLA attainment a plan predicts on its history: each group's TTP (the
/// share of epochs in which at most R of its members are active), weighted
/// by the group's member count.
double PlanSlaAttainment(const thrifty::DeploymentPlan& plan);

// --- fingerprints ---------------------------------------------------------

std::string Hex(uint64_t value);

/// FNV-1a over a trivially copyable value's bytes.
template <typename T>
uint64_t FoldValue(uint64_t hash, const T& value) {
  return thrifty::Fnv1a64(
      std::string_view(reinterpret_cast<const char*>(&value), sizeof(value)),
      hash);
}

uint64_t PopulationFingerprint(const std::vector<thrifty::TenantSpec>& specs);
uint64_t LogFingerprint(const std::vector<thrifty::TenantLog>& logs);

/// Seed of the §7.1 Step-1 session library. The library is generated once,
/// as in the paper, rather than per workload seed: every tenant's log is
/// composed from its few sessions per class, so a library drawn per seed
/// would move the cost of every workload as a whole and swamp the
/// run-to-run comparison the benchmark exists for.
inline constexpr uint64_t kLibrarySeed = 42;

/// §7.1 Steps 1 and 2 up to the tenant population: the session library
/// (from kLibrarySeed) and `count` tenants drawn from `seed`. Rng streams
/// are keyed like the repo's benches (1 = sessions, 2 = population,
/// 3 = composition).
struct Population {
  std::unique_ptr<thrifty::SessionLibrary> library;
  std::vector<thrifty::TenantSpec> tenants;
};
thrifty::Result<Population> MakePopulation(const thrifty::QueryCatalog& catalog,
                                           uint64_t seed, int count,
                                           std::vector<int> node_sizes,
                                           int sessions_per_class);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_COMMON_H_
