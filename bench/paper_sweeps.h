// The paper's Chapter 7 sweeps (Figures 7.1-7.6) as data. Each figure
// varies one parameter (E, T, theta, R, P, time-zone mix) away from the
// Table 7.1 defaults and reports FFD and two-step effectiveness, group size
// and solver time; a FigureSpec says what else differs. Each fig7_* binary
// is paper_sweeps.cc built with THRIFTY_PAPER_SWEEP naming its spec.

#ifndef THRIFTY_BENCH_PAPER_SWEEPS_H_
#define THRIFTY_BENCH_PAPER_SWEEPS_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"

namespace thrifty {
namespace bench {

/// \brief A sweep point: its label and its experiment parameters
/// (config.epoch_size is E; seed and solver_jobs come from the flags).
struct SweepPoint {
  std::string label;
  ExperimentConfig config;
};

/// \brief Gate: the two-step plan's group level sets are at least
/// `min_ratio`x smaller than their dense equivalent at the first
/// `finest_points` points.
struct CompressionGate {
  size_t finest_points = 0;
  double min_ratio = 0;
};

/// \brief --warm-start: a sequential two-step pass after the cold sweep
/// that seeds each point with the previous point's warm plan; point 0 with
/// its own cold plan if `seed_from_cold_plan`, else unseeded. With
/// `max_eff_delta_pp` set, every point must be within that many
/// effectiveness points of its cold solve and faster than it.
struct WarmPass {
  bool seed_from_cold_plan = false;
  std::optional<double> max_eff_delta_pp{};
};

/// \brief One figure's sweep. A spec may leave out the fields initialized
/// with {}.
struct FigureSpec {
  /// Binary name and BENCH_<name>.json.
  std::string name;
  std::string title;
  std::string description;
  /// Lead the description with T and end it with the average active ratio
  /// of the last point's workload.
  bool describe_workload = false;
  /// Header of the point-label column.
  std::string axis;
  std::vector<SweepPoint> points;
  /// --smoke, accepted when smoke_points is not empty, runs these instead.
  std::string smoke_help{};
  std::vector<SweepPoint> smoke_points{};
  /// Results-table columns after the point label, by header.
  std::vector<std::string> columns;
  /// Per-point metrics, recorded as <metric><metric_suffix><key>, the key
  /// being the point's label, or its index with index_keys.
  std::vector<std::string> metrics;
  std::string metric_suffix;
  bool index_keys = false;
  /// Printed after the timings table.
  std::string footnote{};
  std::optional<CompressionGate> compression_gate{};
  std::optional<WarmPass> warm_pass{};
};

/// \brief The six Chapter 7 figure sweeps.
std::vector<FigureSpec> PaperSweeps();

/// \brief Parses the figure's flags (bad ones exit 2 before any work), runs
/// its sweep and returns 1 if a gate failed, else 0.
int RunPaperSweep(const FigureSpec& spec, int argc, char** argv);

}  // namespace bench
}  // namespace thrifty

#endif  // THRIFTY_BENCH_PAPER_SWEEPS_H_
