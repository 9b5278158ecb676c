// The Chapter 7 figure table and the one driver that runs any sweep in it;
// EXPERIMENTS.md gives each figure's expected shape beside the measured
// values. Points run as ParallelFor trials merged in point order, so the
// results table is byte-identical for any --jobs and --solver-jobs. The
// scenarios use a 14-day horizon instead of the paper's 30 days, since the
// weekly pattern repeats.

#include "paper_sweeps.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sim_time.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/deployment_advisor.h"
#include "mppdb/catalog.h"
#include "placement/ffd.h"
#include "placement/problem.h"
#include "placement/two_step.h"
#include "workload/query_log.h"

namespace thrifty {
namespace bench {
namespace {

/// \brief What one verified solve produced.
struct SolverRow {
  double effectiveness = 0;       // fraction of requested nodes saved
  double average_group_size = 0;  // tenants per tenant-group
  double solve_seconds = 0;
  int64_t nodes_used = 0;
  int64_t nodes_requested = 0;
  size_t level_set_bytes = 0;        // sparse group-level-set footprint
  size_t level_set_dense_bytes = 0;  // dense-bitmap equivalent footprint
  size_t warm_groups_kept = 0;       // warm-started solves only
  size_t warm_groups_repaired = 0;
  size_t warm_members_evicted = 0;
};

/// \brief Runs one solver over the epochized problem, verifies the
/// solution and summarizes it; any failure exits 1. The result is the same
/// for any `solver_jobs`. The two-step solver starts from `warm_start` when
/// given, and `solution_out`, when given, receives the grouping so the
/// warm pass can chain it to the next point.
SolverRow RunSolver(GroupingSolver solver, const Workload& workload,
                    const std::vector<ActivityVector>& vectors,
                    int replication_factor, double sla_fraction,
                    int solver_jobs, const GroupingSolution* warm_start,
                    GroupingSolution* solution_out) {
  auto problem = MakePackingProblem(workload.tenants, vectors,
                                    replication_factor, sla_fraction);
  if (!problem.ok()) {
    std::cerr << "problem construction failed: " << problem.status() << "\n";
    std::exit(1);
  }
  TwoStepOptions two_step_options;
  two_step_options.solver_jobs = solver_jobs;
  two_step_options.warm_start = warm_start;
  auto solution = solver == GroupingSolver::kTwoStep
                      ? SolveTwoStep(*problem, two_step_options)
                      : SolveFfd(*problem);
  if (!solution.ok()) {
    std::cerr << "solver failed: " << solution.status() << "\n";
    std::exit(1);
  }
  Status valid = VerifySolution(*problem, *solution);
  if (!valid.ok()) {
    std::cerr << "solution verification failed: " << valid << "\n";
    std::exit(1);
  }
  SolverRow row;
  row.nodes_requested = problem->TotalRequestedNodes();
  row.nodes_used = solution->NodesUsed(replication_factor);
  row.effectiveness = solution->ConsolidationEffectiveness(
      replication_factor, row.nodes_requested);
  row.average_group_size = solution->AverageGroupSize();
  row.solve_seconds = solution->solve_seconds;
  row.level_set_bytes = solution->LevelSetBytes();
  row.level_set_dense_bytes = solution->LevelSetDenseBytes();
  row.warm_groups_kept = solution->warm_groups_kept;
  row.warm_groups_repaired = solution->warm_groups_repaired;
  row.warm_members_evicted = solution->warm_members_evicted;
  if (solution_out != nullptr) *solution_out = *std::move(solution);
  return row;
}

/// \brief What the sweep measured at one point: the workload's
/// time-average and busy-epoch active-tenant ratios, the two cold solves,
/// and the --warm-start pass's two-step solve.
struct PointResult {
  double active_ratio = 0;
  double busy_ratio = 0;
  SolverRow ffd;
  SolverRow two_step;
  SolverRow warm;
};

double LevelSetCompression(const SolverRow& row) {
  return row.level_set_bytes == 0
             ? 0
             : static_cast<double>(row.level_set_dense_bytes) /
                   static_cast<double>(row.level_set_bytes);
}

double WarmSaving(const PointResult& r) {
  return r.two_step.solve_seconds - r.warm.solve_seconds;
}

double WarmDeltaPp(const PointResult& r) {
  return (r.warm.effectiveness - r.two_step.effectiveness) * 100;
}

/// \brief Every table cell a figure can show at a point, by column header.
std::map<std::string, std::string> Cells(const SweepPoint& point,
                                         const PointResult& r) {
  return {{"horizon (d)", std::to_string(point.config.horizon_days)},
          {"active ratio", FormatPercent(r.active_ratio, 1)},
          {"busy-epoch ratio", FormatPercent(r.busy_ratio, 1)},
          {"FFD eff.", FormatPercent(r.ffd.effectiveness, 1)},
          {"2-step eff.", FormatPercent(r.two_step.effectiveness, 1)},
          {"FFD grp", FormatDouble(r.ffd.average_group_size, 1)},
          {"2-step grp", FormatDouble(r.two_step.average_group_size, 1)},
          {"2-step nodes used/requested",
           std::to_string(r.two_step.nodes_used) + "/" +
               std::to_string(r.two_step.nodes_requested)},
          {"FFD time (s)", FormatDouble(r.ffd.solve_seconds, 2)},
          {"2-step time (s)", FormatDouble(r.two_step.solve_seconds, 2)},
          {"2-step level-set B", std::to_string(r.two_step.level_set_bytes)},
          {"dense-equiv B", std::to_string(r.two_step.level_set_dense_bytes)},
          {"compression",
           FormatDouble(LevelSetCompression(r.two_step), 1) + "x"},
          {"cold (s)", FormatDouble(r.two_step.solve_seconds, 2)},
          {"warm (s)", FormatDouble(r.warm.solve_seconds, 2)},
          {"saved (s)", FormatDouble(WarmSaving(r), 2)},
          {"eff delta (pp)", FormatDouble(WarmDeltaPp(r), 3)},
          {"kept", std::to_string(r.warm.warm_groups_kept)},
          {"repaired", std::to_string(r.warm.warm_groups_repaired)},
          {"evicted", std::to_string(r.warm.warm_members_evicted)}};
}

/// \brief Every metric a figure can record at a point, by name.
std::map<std::string, double> Metrics(const PointResult& r) {
  return {{"busy_ratio", r.busy_ratio},
          {"ffd_solve_seconds", r.ffd.solve_seconds},
          {"two_step_solve_seconds", r.two_step.solve_seconds},
          {"two_step_effectiveness", r.two_step.effectiveness},
          {"two_step_level_set_bytes",
           static_cast<double>(r.two_step.level_set_bytes)},
          {"two_step_level_set_dense_bytes",
           static_cast<double>(r.two_step.level_set_dense_bytes)},
          {"two_step_level_set_compression", LevelSetCompression(r.two_step)},
          {"warm_two_step_solve_seconds", r.warm.solve_seconds},
          {"warm_time_saving", WarmSaving(r)},
          {"warm_eff_delta_pp", WarmDeltaPp(r)},
          {"warm_groups_kept", static_cast<double>(r.warm.warm_groups_kept)},
          {"warm_groups_repaired",
           static_cast<double>(r.warm.warm_groups_repaired)},
          {"warm_members_evicted",
           static_cast<double>(r.warm.warm_members_evicted)}};
}

SweepPoint EpochPoint(std::string label, double seconds, int horizon_days,
                      int tenants = ExperimentConfig{}.num_tenants) {
  return {std::move(label),
          {.num_tenants = tenants,
           .epoch_size = SecondsToDuration(seconds),
           .horizon_days = horizon_days}};
}

/// \brief `config` with the fields only the solve reads reset, so configs
/// that build the same workload compare equal.
ExperimentConfig WorkloadPart(ExperimentConfig config) {
  const ExperimentConfig defaults;
  config.replication_factor = defaults.replication_factor;
  config.sla_fraction = defaults.sla_fraction;
  config.epoch_size = defaults.epoch_size;
  return config;
}

}  // namespace

std::vector<FigureSpec> PaperSweeps() {
  const std::vector<std::string> solver_metrics = {
      "ffd_solve_seconds", "two_step_solve_seconds", "two_step_effectiveness"};
  auto scenario = [](std::string label, std::vector<int> offsets, bool lunch) {
    return SweepPoint{std::move(label),
                      {.composer = {.offset_hours = std::move(offsets),
                                    .lunch_break = lunch}}};
  };
  return {
      // The E <= 0.1 s points use a 3-day workload, whose epoch count would
      // otherwise be 26M+. The warm pass is not gated: changing E reshapes
      // the problem, so carried-over seeds are legitimately non-neutral.
      {.name = "fig7_1_epoch_size",
       .title = "Figure 7.1: Varying Epoch Size E",
       .description = "theta=0.8, R=3, P=99.9%.",
       .describe_workload = true,
       .axis = "E (s)",
       .points = {EpochPoint("0.05", 0.05, 3), EpochPoint("0.1", 0.1, 3),
                  EpochPoint("1.0", 1, 14), EpochPoint("10.0", 10, 14),
                  EpochPoint("30.0", 30, 14), EpochPoint("90.0", 90, 14),
                  EpochPoint("600.0", 600, 14),
                  EpochPoint("1800.0", 1800, 14)},
       .smoke_help = "  T=200 tenants, 3-day horizon, 4 E points (CI scale)",
       .smoke_points = {EpochPoint("0.05", 0.05, 3, 200),
                        EpochPoint("0.1", 0.1, 3, 200),
                        EpochPoint("10.0", 10, 3, 200),
                        EpochPoint("600.0", 600, 3, 200)},
       .columns = {"horizon (d)", "FFD eff.", "2-step eff.", "FFD grp",
                   "2-step grp"},
       .metrics = {"ffd_solve_seconds", "two_step_solve_seconds",
                   "two_step_effectiveness", "two_step_level_set_bytes",
                   "two_step_level_set_dense_bytes",
                   "two_step_level_set_compression"},
       .metric_suffix = "_e",
       .compression_gate = CompressionGate{2, 4.0},
       .warm_pass = WarmPass{}},
      {.name = "fig7_2_num_tenants",
       .title = "Figure 7.2: Varying Number of Tenants T",
       .description = "theta=0.8, R=3, P=99.9%, E=10s, 14-day horizon.",
       .axis = "T",
       .points = {{"1000", {.num_tenants = 1000}},
                  {"5000", {.num_tenants = 5000}},
                  {"10000", {.num_tenants = 10000}}},
       .columns = {"active ratio", "FFD eff.", "2-step eff.", "FFD grp",
                   "2-step grp", "2-step nodes used/requested"},
       .metrics = solver_metrics,
       .metric_suffix = "_t",
       .footnote = "\nHeadline check (paper: at T=5000 Thrifty uses only "
                   "18.7% of requested nodes -> 81.3% effectiveness).\n"},
      {.name = "fig7_3_tenant_distribution",
       .title = "Figure 7.3: Varying Tenant Distribution theta",
       .description = "T=5000, R=3, P=99.9%, E=10s, 14-day horizon.",
       .axis = "theta",
       .points = {{"0.10", {.zipf_theta = 0.1}},
                  {"0.20", {.zipf_theta = 0.2}},
                  {"0.50", {.zipf_theta = 0.5}},
                  {"0.80", {.zipf_theta = 0.8}},
                  {"0.99", {.zipf_theta = 0.99}}},
       .columns = {"FFD eff.", "2-step eff.", "FFD grp", "2-step grp"},
       .metrics = solver_metrics,
       .metric_suffix = "_theta"},
      {.name = "fig7_4_replication",
       .title = "Figure 7.4: Varying Replication Factor R",
       .description = "T=5000, theta=0.8, P=99.9%, E=10s, 14-day horizon.",
       .axis = "R",
       .points = {{"1", {.replication_factor = 1}},
                  {"2", {.replication_factor = 2}},
                  {"3", {.replication_factor = 3}},
                  {"4", {.replication_factor = 4}}},
       .columns = {"FFD eff.", "2-step eff.", "FFD grp", "2-step grp"},
       .metrics = solver_metrics,
       .metric_suffix = "_r"},
      // P0 seeds from its own cold plan (the unchanged-deployment fast
      // path); group repair then carries each plan to the tighter next P.
      {.name = "fig7_5_sla",
       .title = "Figure 7.5: Varying Performance SLA P",
       .description = "T=5000, theta=0.8, R=3, E=10s, 14-day horizon.",
       .axis = "P",
       .points = {{"95.00%", {.sla_fraction = 0.95}},
                  {"99.00%", {.sla_fraction = 0.99}},
                  {"99.90%", {.sla_fraction = 0.999}},
                  {"99.99%", {.sla_fraction = 0.9999}}},
       .columns = {"FFD eff.", "2-step eff.", "FFD grp", "2-step grp"},
       .metrics = solver_metrics,
       .metric_suffix = "_p",
       .index_keys = true,
       .warm_pass = WarmPass{.seed_from_cold_plan = true,
                             .max_eff_delta_pp = 1.0}},
      // §7.4: the paper's rising "active tenant ratio" is the busy-epoch
      // ratio; the time-average is invariant to fewer clock hours.
      {.name = "fig7_6_active_ratio",
       .title = "Figure 7.6: Higher Active Tenant Ratio",
       .description =
           "T=5000, theta=0.8, R=3, P=99.9%, E=10s, 14-day horizon.",
       .axis = "scenario",
       .points = {scenario("default (7 zones)", {0, 3, 5, 8, 16, 17, 19},
                           true),
                  scenario("(1) offsets {0,3}", {0, 3}, true),
                  scenario("(2) {0,3}, no lunch", {0, 3}, false),
                  scenario("(3) all +0, no lunch", {0}, false)},
       .columns = {"busy-epoch ratio", "FFD eff.", "2-step eff.", "FFD grp",
                   "2-step grp"},
       .metrics = {"busy_ratio", "two_step_effectiveness"},
       .metric_suffix = "_s",
       .index_keys = true},
  };
}

int RunPaperSweep(const FigureSpec& spec, int argc, char** argv) {
  bool smoke = false;
  std::vector<BenchFlag> flags;
  if (!spec.smoke_points.empty()) {
    flags.push_back(SwitchFlag("--smoke", &smoke, spec.smoke_help));
  }
  const BenchOptions options = ParseBenchArgs(
      argc, argv, spec.name,
      kJobsFlag | kSolverJobsFlag | kSeedFlag |
          (spec.warm_pass ? kWarmStartFlag : kNoSharedFlags),
      flags);
  BenchReport report(spec.name, options);

  std::vector<SweepPoint> points = smoke ? spec.smoke_points : spec.points;
  for (SweepPoint& point : points) {
    point.config.seed = options.seed;
    point.config.solver_jobs = options.solver_jobs;
  }

  // A workload several points use is generated once, before the sweep; a
  // point's own workload is generated in its trial, so at most --jobs of
  // those are held at once. `owner` is the first point on each workload.
  const QueryCatalog catalog = QueryCatalog::Default();
  std::vector<size_t> owner(points.size());
  std::vector<std::optional<Workload>> shared_workloads(points.size());
  for (size_t p = 0; p < points.size(); ++p) {
    while (WorkloadPart(points[owner[p]].config) !=
           WorkloadPart(points[p].config)) {
      ++owner[p];
    }
    if (owner[p] < p && !shared_workloads[owner[p]]) {
      shared_workloads[owner[p]] =
          GenerateWorkload(catalog, points[owner[p]].config);
    }
  }
  auto workload_of = [&](size_t p,
                         std::optional<Workload>& own) -> const Workload& {
    if (shared_workloads[owner[p]]) return *shared_workloads[owner[p]];
    return own.emplace(GenerateWorkload(catalog, points[p].config));
  };
  // Points on one workload at one E share its epochized vectors too, and
  // each (point, solver) pair is then a trial of its own.
  bool one_problem = shared_workloads[0].has_value();
  for (size_t p = 0; p < points.size(); ++p) {
    one_problem = one_problem && owner[p] == 0 &&
                  points[p].config.epoch_size == points[0].config.epoch_size;
  }
  std::optional<std::vector<ActivityVector>> shared_vectors;
  if (one_problem) {
    shared_vectors = EpochizeWorkload(
        *shared_workloads[0], points[0].config.epoch_size, options.solver_jobs);
  }
  auto vectors_of = [&](size_t p, const Workload& workload,
                        std::vector<ActivityVector>& own)
      -> const std::vector<ActivityVector>& {
    if (shared_vectors) return *shared_vectors;
    return own = EpochizeWorkload(workload, points[p].config.epoch_size,
                                  options.solver_jobs);
  };

  std::string description = spec.description;
  if (spec.describe_workload) {
    std::optional<Workload> own;
    description = "T=" + std::to_string(points.back().config.num_tenants) +
                  ", " + description + " Average active tenant ratio: " +
                  FormatPercent(
                      workload_of(points.size() - 1, own).average_active_ratio,
                      1) +
                  " (paper band: 8.9%-12%).";
  }
  PrintBanner(spec.title, description + (smoke ? " [--smoke scenario]" : ""));

  const GroupingSolver solvers[] = {GroupingSolver::kFfd,
                                    GroupingSolver::kTwoStep};
  const size_t trials_per_point = shared_vectors ? 2 : 1;
  // Point 0's cold two-step plan, when it seeds the warm pass.
  const bool keep_cold_plan =
      options.warm_start && spec.warm_pass->seed_from_cold_plan;
  GroupingSolution cold_plan;
  std::vector<PointResult> trials(points.size() * trials_per_point);
  auto pool = MakeThreadPool(options.jobs);
  ParallelFor(pool.get(), trials.size(), [&](size_t t) {
    const size_t p = t / trials_per_point;
    const ExperimentConfig& config = points[p].config;
    std::optional<Workload> own_workload;
    const Workload& workload = workload_of(p, own_workload);
    std::vector<ActivityVector> own_vectors;
    const auto& vectors = vectors_of(p, workload, own_vectors);
    PointResult& result = trials[t];
    result.active_ratio = workload.average_active_ratio;
    result.busy_ratio = ConditionalActiveTenantRatio(vectors);
    for (size_t s = 0; s < std::size(solvers); ++s) {
      if (trials_per_point > 1 && s != t % 2) continue;
      const bool keep = keep_cold_plan && p == 0 && s == 1;
      (s == 0 ? result.ffd : result.two_step) = RunSolver(
          solvers[s], workload, vectors, config.replication_factor,
          config.sla_fraction, options.solver_jobs, nullptr,
          keep ? &cold_plan : nullptr);
    }
  });
  std::vector<PointResult> results;
  for (size_t t = 0; t < trials.size(); t += trials_per_point) {
    results.push_back(trials[t]);
    if (trials_per_point > 1) results.back().two_step = trials[t + 1].two_step;
  }

  auto print = [&](std::vector<std::string> columns) {
    columns.insert(columns.begin(), spec.axis);
    TablePrinter table(columns);
    for (size_t p = 0; p < points.size(); ++p) {
      const auto cells = Cells(points[p], results[p]);
      std::vector<std::string> row = {points[p].label};
      for (size_t c = 1; c < columns.size(); ++c) {
        row.push_back(cells.at(columns[c]));
      }
      table.AddRow(row);
    }
    table.Print(std::cout);
    return table;
  };
  auto record = [&](const std::vector<std::string>& names) {
    for (size_t p = 0; p < points.size(); ++p) {
      const auto metrics = Metrics(results[p]);
      for (const std::string& name : names) {
        report.AddMetric(
            name + spec.metric_suffix +
                (spec.index_keys ? std::to_string(p) : points[p].label),
            metrics.at(name));
      }
    }
  };

  const TablePrinter table = print(spec.columns);
  record(spec.metrics);
  std::cout << "\nSolver wall-clock (non-deterministic, excluded from the "
               "fingerprint):\n";
  print({"FFD time (s)", "2-step time (s)"});
  std::cout << spec.footnote;

  if (const auto& gate = spec.compression_gate) {
    std::cout << "\nTwo-step group-level-set memory (sparse vs dense "
                 "equivalent):\n";
    print({"2-step level-set B", "dense-equiv B", "compression"});
    std::cout << "\n";
    const bool compression_ok = std::all_of(
        results.begin(), results.begin() + gate->finest_points,
        [&](const PointResult& r) {
          return LevelSetCompression(r.two_step) >= gate->min_ratio;
        });
    report.Gate("compression_check_passed", compression_ok,
                "level-set compression >= " +
                    FormatDouble(gate->min_ratio, 0) +
                    "x at the finest E points");
  }

  if (options.warm_start) {
    const WarmPass& pass = *spec.warm_pass;
    const GroupingSolution* seed =
        pass.seed_from_cold_plan ? &cold_plan : nullptr;
    GroupingSolution previous;
    for (size_t p = 0; p < points.size(); ++p) {
      const ExperimentConfig& config = points[p].config;
      std::optional<Workload> own_workload;
      const Workload& workload = workload_of(p, own_workload);
      std::vector<ActivityVector> own_vectors;
      GroupingSolution current;
      results[p].warm = RunSolver(
          GroupingSolver::kTwoStep, workload,
          vectors_of(p, workload, own_vectors), config.replication_factor,
          config.sla_fraction, options.solver_jobs, seed, &current);
      previous = std::move(current);
      seed = &previous;
    }
    record({"warm_two_step_solve_seconds", "warm_time_saving",
            "warm_eff_delta_pp", "warm_groups_kept", "warm_groups_repaired",
            "warm_members_evicted"});
    std::cout << "\nWarm-started two-step pass (sequential; "
              << (pass.seed_from_cold_plan
                      ? spec.axis + "0 seeded by its own cold plan, later "
                                    "points by the previous point's plan"
                      : "each point seeded by the previous point's plan")
              << "):\n";
    print({"cold (s)", "warm (s)", "saved (s)", "eff delta (pp)", "kept",
           "repaired", "evicted"});
    if (const auto& max_delta_pp = pass.max_eff_delta_pp) {
      std::cout << "\n";
      const bool warm_ok = std::all_of(
          results.begin(), results.end(), [&](const PointResult& r) {
            return std::abs(WarmDeltaPp(r)) <= *max_delta_pp &&
                   WarmSaving(r) > 0;
          });
      report.Gate("warm_start_check_passed", warm_ok,
                  "warm start within " + FormatDouble(*max_delta_pp, 0) +
                      "pp of the cold solve and faster at every " + spec.axis);
    }
  }

  report.SetResultsTable(table);
  report.AddMetric("trials", static_cast<double>(trials.size()));
  return report.Finish();
}

}  // namespace bench
}  // namespace thrifty

int main(int argc, char** argv) {
  for (const auto& spec : thrifty::bench::PaperSweeps()) {
    if (spec.name == THRIFTY_PAPER_SWEEP) {
      return thrifty::bench::RunPaperSweep(spec, argc, argv);
    }
  }
  std::cerr << "no paper sweep named " << THRIFTY_PAPER_SWEEP << "\n";
  return 2;
}
