// Shared harness code for the bench binaries: the command-line flags,
// BenchReport (metrics, gates, the fingerprinted results table and
// BENCH_<name>.json), and the §7.1 workload a consolidation bench starts
// from: generate the tenants' activity, then epochize it. The Chapter 7
// figure sweeps (Fig 7.1-7.6) run on it through paper_sweeps.cc.

#ifndef THRIFTY_BENCH_BENCH_UTIL_H_
#define THRIFTY_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "activity/activity_vector.h"
#include "common/fnv.h"
#include "common/interval.h"
#include "common/sim_time.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "workload/log_generator.h"
#include "workload/tenant.h"

namespace thrifty {
namespace bench {

/// \brief Command-line options shared by every bench binary.
struct BenchOptions {
  /// Worker threads for the trial sweep (--jobs=N). 1 = sequential.
  int jobs = 1;
  /// Worker threads *inside* one solve / one workload composition
  /// (--solver-jobs=N): candidate-evaluation sharding in the two-step
  /// heuristic, parallel branch-and-bound subtrees in the exact solver,
  /// and tenant-sharded log composition. Composes multiplicatively with
  /// --jobs (each concurrent trial gets its own solver pool). Results are
  /// bit-identical for any value. 1 = sequential.
  int solver_jobs = 1;
  /// Warm-start sweep points from their neighbour's grouping
  /// (--warm-start): the figure sweeps that declare a warm pass (fig7_1,
  /// fig7_5) add a sequential two-step pass that seeds each point with the
  /// previous point's plan and records per-point solver-time savings and
  /// effectiveness deltas. Off by default; the fingerprinted cold results
  /// are unchanged either way.
  bool warm_start = false;
  /// Base seed for the sweep's deterministic trial streams (--seed=S).
  uint64_t seed = 42;
  /// True when --seed was passed explicitly (benches whose canonical
  /// scenario uses a non-default seed keep it unless overridden).
  bool seed_set = false;
  /// Directory for the BENCH_<name>.json result file (--out=DIR).
  std::string out_dir = ".";
  /// Skip writing the JSON file (--no-json).
  bool write_json = true;

  /// \brief The explicit --seed if given, else `fallback`.
  uint64_t SeedOr(uint64_t fallback) const {
    return seed_set ? seed : fallback;
  }
};

/// \brief A command-line flag a bench declares on top of the shared ones.
///
/// A value flag accepts "--name=value" or "--name value"; a switch takes no
/// value. Either way `parse` receives the value text (empty for a switch)
/// and returns false if it is malformed.
struct BenchFlag {
  /// Flag name with its leading dashes, e.g. "--tenants".
  std::string name;
  /// Usage text printed after the name by --help.
  std::string help;
  std::function<bool(const std::string& value)> parse;
  bool takes_value = true;
};

/// \brief A switch that sets `*on` when present.
BenchFlag SwitchFlag(std::string name, bool* on, std::string help);

/// \brief An integer flag whose whole value must be a base-10 integer of
/// at least `min`.
BenchFlag IntFlag(std::string name, int* out, int min, std::string help);

/// \brief Strict base-10 parse of all of `text` into an int >= `min`.
bool ParseIntAtLeast(const std::string& text, int min, int* out);

/// \brief True if `text` is exactly 16 hex digits (a Hex64 fingerprint).
bool IsHex64(const std::string& text);

/// \brief Fingerprints pinned by one flag carrying `names.size()`
/// comma-separated Hex64 values (e.g. --expect=W,T,E), checked with
/// BenchReport::GatePins.
struct FingerprintPins {
  /// `flag` is the name with its leading dashes, e.g. "--expect"; `names`
  /// say what each pinned value fingerprints, in flag order.
  FingerprintPins(std::string flag, std::vector<std::string> names)
      : flag(std::move(flag)), names(std::move(names)) {}
  // The parser Flag() returns writes through `this`.
  FingerprintPins(const FingerprintPins&) = delete;
  FingerprintPins& operator=(const FingerprintPins&) = delete;

  /// \brief The flag that fills `expected`. A value that is not exactly
  /// names.size() Hex64 fingerprints is malformed (exit 2).
  BenchFlag Flag(std::string help);

  const std::string flag;
  const std::vector<std::string> names;
  /// The pinned values; empty unless the flag was given.
  std::vector<std::string> expected;
};

/// \brief The shared flags a bench reads, declared to ParseBenchArgs as a
/// bitwise OR. --out, --no-json and --help are always accepted.
enum SharedFlags : unsigned {
  kNoSharedFlags = 0,
  kJobsFlag = 1u << 0,        ///< --jobs / -j
  kSolverJobsFlag = 1u << 1,  ///< --solver-jobs
  kWarmStartFlag = 1u << 2,   ///< --warm-start
  kSeedFlag = 1u << 3,        ///< --seed
};

/// \brief Parses the declared `shared` flags plus --out/--no-json/--help
/// and the bench's own `flags`. An unknown argument (a shared flag the
/// bench did not declare among them), a missing value or a malformed value
/// prints a message naming the flag and exits 2.
BenchOptions ParseBenchArgs(int argc, char** argv,
                            const std::string& bench_name, unsigned shared,
                            const std::vector<BenchFlag>& flags = {});

/// \brief Renders a TablePrinter to a string.
std::string RenderTable(const TablePrinter& table);

/// \brief Collects a bench run's wall clock, metrics, gates, and
/// deterministic result table, writes them to BENCH_<name>.json, and
/// decides the exit code.
///
/// The results table must contain only deterministic cells (no wall-clock
/// timings), so its fingerprint is byte-identical for --jobs=1 and
/// --jobs=N; timings belong in metrics, which are reported but never
/// fingerprinted. A bench `main` ends in `return report.Finish();`, which
/// is 1 if any gate failed.
class BenchReport {
 public:
  /// \brief Starts the wall clock.
  BenchReport(std::string bench_name, BenchOptions options);

  void AddMetric(const std::string& name, double value);
  void AddText(const std::string& name, const std::string& value);

  /// \brief Stores the deterministic results table (text + fingerprint).
  void SetResultsTable(const TablePrinter& table);

  double ElapsedSeconds() const;

  /// \brief A pass/fail check: prints "<label>: PASS" (or FAIL) and records
  /// `metric` as 1 (or 0); an empty `metric` records none. A failed gate
  /// makes Finish() print its label and return 1.
  void Gate(const std::string& metric, bool passed, const std::string& label);

  /// \brief Gates `metric` on `got` (one fingerprint per pins.names entry)
  /// matching the pinned values, printing a drift line per mismatch. A
  /// no-op when the pin flag was not given.
  void GatePins(const std::string& metric, const FingerprintPins& pins,
                const std::vector<uint64_t>& got);

  /// \brief True while no gate has failed.
  bool passed() const { return failed_gates_.empty(); }

  /// \brief Stops the clock, prints the failed gates and a summary line,
  /// writes the JSON file (unless --no-json), and returns the exit code:
  /// 0 if every gate passed, else 1.
  int Finish();

 private:
  void WriteJson(double wall_seconds, const std::string& fingerprint) const;

  std::string bench_name_;
  BenchOptions options_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failed_gates_;
  std::string results_table_;
};

/// \brief Parameters of one experiment run (defaults = Table 7.1 defaults,
/// with a 14-day horizon instead of 30 days to bound bench runtime; see
/// EXPERIMENTS.md).
struct ExperimentConfig {
  int num_tenants = 5000;
  double zipf_theta = 0.8;
  int replication_factor = 3;
  double sla_fraction = 0.999;
  SimDuration epoch_size = 10 * kSecond;
  int horizon_days = 14;
  /// Worker threads for log composition inside GenerateWorkload (and the
  /// default for per-solve parallelism); output is jobs-invariant.
  int solver_jobs = 1;
  /// Step-1 sessions generated per (node size, suite) class; the paper
  /// used 100.
  int sessions_per_class = 25;
  uint64_t seed = 42;
  LogComposerOptions composer{};

  bool operator==(const ExperimentConfig&) const = default;
};

/// \brief A generated multi-tenant workload (activity-only form).
struct Workload {
  std::vector<TenantSpec> tenants;
  std::vector<IntervalSet> activity;
  SimTime horizon_end = 0;
  double average_active_ratio = 0;
};

/// \brief Runs §7.1 Steps 1+2 (activity-only composition).
Workload GenerateWorkload(const QueryCatalog& catalog,
                          const ExperimentConfig& config);

/// \brief Epochizes a workload's activity through the streamed epochizer,
/// tenant-sharded over `jobs` workers (byte-identical output for any
/// value).
std::vector<ActivityVector> EpochizeWorkload(const Workload& workload,
                                             SimDuration epoch_size,
                                             int jobs = 1);

/// \brief Current process peak resident set size in bytes (0 if the
/// platform doesn't report it).
size_t PeakRssBytes();

/// \brief Prints a figure banner.
void PrintBanner(const std::string& title, const std::string& description);

}  // namespace bench
}  // namespace thrifty

#endif  // THRIFTY_BENCH_BENCH_UTIL_H_
