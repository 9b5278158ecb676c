// Scale sweep: the hierarchical shard -> solve -> merge placement
// (placement/hierarchical.h) at tenant counts the flat two-step solver
// cannot touch — 10k to 100k tenants by default, 1M on request, on the
// §7.1 synthetic workload.
//
// Per point the bench composes the workload straight into sparse activity
// vectors (LogComposer::ComposeActivityVectors — the streamed epochizer
// path, so no interval set for the whole population is ever resident),
// solves it hierarchically at shard_jobs 1, verifies the plan, and records
// the FNV plan fingerprint; it then re-solves at shard_jobs 4, which must
// reproduce the plan, and records the shard fan-out speedup and the merge's
// share of the wall time at both. At the first point it additionally
//   * runs the flat SolveTwoStep and gates the hierarchical effectiveness
//     within 2 percentage points of it, and
//   * re-solves across the shard_jobs x solver_jobs cross and gates
//     byte-identical plan fingerprints (parallelism must never reach the
//     output).
// The flat solver runs only at points <= --flat-max-tenants (its ~quadratic
// cost is extrapolated and reported for the skipped points), so the results
// table stays a pure function of the flags.
//
// Wall-clock, speedups and RSS are metrics, never fingerprinted.
//
// Extra flags: --smoke (points 10k + 50k, the CI tier-1 configuration),
// --tenants=N[,N...] (explicit point list; default 10000,50000,100000, the
// points of results/BENCH_scale_sweep.json — --tenants=1000000 runs the 1M
// point, ~36 min and ~6.4 GB RSS on 4 cores), --flat-max-tenants=N (default
// 10000; 0 disables the flat baseline), --expect-plan=<16 hex> (pins the
// first point's plan fingerprint; CI uses one constant across the AVX2 and
// forced-scalar legs to prove the plan is identical on both dispatch
// targets).

#include <chrono>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "activity/epoch.h"
#include "activity/streamed_epochizer.h"
#include "bench_util.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "placement/hierarchical.h"
#include "placement/problem.h"
#include "placement/two_step.h"
#include "workload/log_generator.h"
#include "workload/tenant_population.h"

namespace {

/// The raw bytes of an array, for chaining into Fnv1a64.
std::string_view Bytes(const void* data, size_t len) {
  return std::string_view(static_cast<const char*>(data), len);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;
  const std::string bench_name = "scale_sweep";

  std::vector<int> points = {10000, 50000, 100000};
  int flat_max_tenants = 10000;
  FingerprintPins pins("--expect-plan", {"first-point plan"});
  BenchOptions options = ParseBenchArgs(
      argc, argv, bench_name, kSolverJobsFlag | kSeedFlag,
      {BenchFlag{"--smoke", "  points 10k + 50k (CI tier-1)",
                 [&points](const std::string&) {
                   points = {10000, 50000};
                   return true;
                 },
                 false},
       BenchFlag{"--tenants",
                 "=N[,N...]  explicit point list (default "
                 "10000,50000,100000; 1000000 runs the 1M point)",
                 [&points](const std::string& value) {
                   points.clear();
                   std::istringstream ss(value);
                   std::string n;
                   while (std::getline(ss, n, ',')) {
                     int count = 0;
                     if (!ParseIntAtLeast(n, 1, &count)) return false;
                     points.push_back(count);
                   }
                   return !points.empty();
                 }},
       IntFlag("--flat-max-tenants", &flat_max_tenants, 0,
               "=N  largest point with a flat baseline (default 10000; 0 "
               "disables it)"),
       pins.Flag("=HEX  pinned first-point plan fingerprint (16 hex "
                 "digits)")});
  BenchReport report(bench_name, options);

  std::string points_text;
  for (int n : points) points_text += std::to_string(n) + " ";
  PrintBanner("Scale sweep: hierarchical placement 10^4 -> 10^6 tenants",
              "points: " + points_text +
                  "| flat baseline at <= " + std::to_string(flat_max_tenants) +
                  " tenants; parallelism-identity cross at the first point. "
                  "Plan fingerprints must be identical at every shard_jobs "
                  "x solver_jobs.");

  QueryCatalog catalog = QueryCatalog::Default();
  TablePrinter table({"tenants", "solver", "config", "groups", "nodes",
                      "requested", "effectiveness", "fingerprint"});

  double last_flat_seconds = 0;
  int last_flat_tenants = 0;
  uint64_t first_plan_fp = 0;
  bool identical = true;

  for (size_t point = 0; point < points.size(); ++point) {
    const int num_tenants = points[point];
    std::string suffix = "_";
    suffix += std::to_string(num_tenants);

    // --- Workload: population + streamed compose->epochize ------------
    ExperimentConfig config;
    config.num_tenants = num_tenants;
    config.seed = options.SeedOr(42);
    auto t0 = std::chrono::steady_clock::now();
    Rng rng(config.seed);
    SessionLibrary library(&catalog, {2, 4, 8, 16, 32},
                           config.sessions_per_class, rng.Fork(1));
    PopulationOptions pop;
    pop.zipf_theta = config.zipf_theta;
    Rng pop_rng = rng.Fork(2);
    auto tenants =
        GenerateTenantPopulation(config.num_tenants, pop, &pop_rng);
    if (!tenants.ok()) {
      std::cerr << "population generation failed: " << tenants.status()
                << "\n";
      return 1;
    }
    LogComposerOptions composer_options = config.composer;
    composer_options.horizon_days = config.horizon_days;
    composer_options.jobs = options.solver_jobs;
    LogComposer composer(&library, composer_options);
    EpochConfig epochs;
    epochs.epoch_size = config.epoch_size;
    epochs.begin = 0;
    epochs.end = composer.horizon_end();
    Rng compose_rng = rng.Fork(3);
    EpochizeGauge gauge;
    auto vectors = composer.ComposeActivityVectors(&*tenants, &compose_rng,
                                                   epochs, &gauge);
    if (!vectors.ok()) {
      std::cerr << "composition failed: " << vectors.status() << "\n";
      return 1;
    }
    report.AddMetric("workload_seconds" + suffix, SecondsSince(t0));
    report.AddMetric("epochize_peak_bytes" + suffix,
                     static_cast<double>(gauge.peak_bytes()));

    uint64_t workload_fp = kFnv1a64Offset;
    for (size_t i = 0; i < vectors->size(); ++i) {
      const auto& v = (*vectors)[i];
      int32_t header[2] = {(*tenants)[i].id,
                           (*tenants)[i].time_zone_offset_hours};
      workload_fp = Fnv1a64(Bytes(header, sizeof(header)), workload_fp);
      workload_fp = Fnv1a64(Bytes(v.word_indices().data(),
                                  v.word_indices().size() * sizeof(uint32_t)),
                            workload_fp);
      workload_fp = Fnv1a64(Bytes(v.word_bits().data(),
                                  v.word_bits().size() * sizeof(uint64_t)),
                            workload_fp);
    }

    auto problem = MakePackingProblem(*tenants, *vectors,
                                      config.replication_factor,
                                      config.sla_fraction);
    if (!problem.ok()) {
      std::cerr << "problem construction failed: " << problem.status()
                << "\n";
      return 1;
    }
    int64_t requested = 0;
    for (const auto& item : problem->items) requested += item.nodes;
    table.AddRow({std::to_string(num_tenants), "workload", "-", "-", "-",
                  std::to_string(requested), "-", Hex64(workload_fp)});

    // --- Hierarchical solve (default partition, shard_jobs 1) ---------
    HierarchicalOptions hier_options;
    hier_options.solver_jobs = options.solver_jobs;
    HierarchicalStats stats;
    t0 = std::chrono::steady_clock::now();
    auto hier = SolveHierarchical(*problem, hier_options, &stats);
    const double hier_seconds = SecondsSince(t0);
    if (!hier.ok()) {
      std::cerr << "hierarchical solve failed: " << hier.status() << "\n";
      return 1;
    }
    auto verified = VerifySolution(*problem, *hier);
    if (!verified.ok()) {
      std::cerr << "hierarchical plan failed verification: " << verified
                << "\n";
      return 1;
    }
    const double hier_eff =
        hier->ConsolidationEffectiveness(config.replication_factor,
                                         requested);
    const uint64_t hier_fp = GroupingFingerprint(*hier);
    if (point == 0) first_plan_fp = hier_fp;
    table.AddRow({std::to_string(num_tenants), "hierarchical", "default",
                  std::to_string(hier->groups.size()),
                  std::to_string(
                      hier->NodesUsed(config.replication_factor)),
                  std::to_string(requested), FormatDouble(hier_eff, 4),
                  Hex64(hier_fp)});
    report.AddMetric("hier_seconds" + suffix, hier_seconds);
    report.AddMetric("hier_signature_seconds" + suffix,
                     stats.signature_seconds);
    report.AddMetric("hier_shard_solve_seconds" + suffix,
                     stats.shard_solve_seconds);
    report.AddMetric("hier_merge_seconds" + suffix, stats.merge_seconds);
    report.AddMetric("hier_merge_share" + suffix,
                     stats.merge_seconds / hier_seconds);
    report.AddMetric("hier_shards" + suffix,
                     static_cast<double>(stats.num_logical_shards));
    report.AddMetric("hier_groups_reopened" + suffix,
                     static_cast<double>(stats.groups_reopened));
    report.AddMetric("hier_merge_pool_tenants" + suffix,
                     static_cast<double>(stats.merge_pool_tenants));
    report.AddMetric("hier_class_tasks" + suffix,
                     static_cast<double>(stats.class_tasks));
    report.AddMetric("hier_max_class_task_tenants" + suffix,
                     static_cast<double>(stats.max_class_task_tenants));
    report.AddMetric("hier_merge_chunks" + suffix,
                     static_cast<double>(stats.merge_chunks));
    report.AddMetric("hier_max_merge_chunk_tenants" + suffix,
                     static_cast<double>(stats.max_merge_chunk_tenants));
    report.AddMetric("hier_argmin_candidates" + suffix,
                     static_cast<double>(stats.argmin_candidates));
    report.AddMetric("hier_argmin_bound_skips" + suffix,
                     static_cast<double>(stats.argmin_bound_skips));
    report.AddMetric("peak_rss_after_bytes" + suffix,
                     static_cast<double>(PeakRssBytes()));
    std::cout << "n=" << num_tenants << " hierarchical: "
              << hier->groups.size() << " groups, "
              << hier->NodesUsed(config.replication_factor) << "/"
              << requested << " nodes, eff "
              << FormatDouble(hier_eff, 4) << ", "
              << FormatDouble(hier_seconds, 1) << "s ("
              << stats.num_logical_shards << " shards), plan "
              << Hex64(hier_fp) << "\n";
    std::cout << "n=" << num_tenants << " schedule: " << stats.class_tasks
              << " shard-class tasks (largest " << stats.max_class_task_tenants
              << " tenants), " << stats.merge_chunks
              << " merge chunks (largest " << stats.max_merge_chunk_tenants
              << " tenants)\n";
    const double skip_share =
        stats.argmin_candidates == 0
            ? 0.0
            : static_cast<double>(stats.argmin_bound_skips) /
                  static_cast<double>(stats.argmin_candidates);
    std::cout << "n=" << num_tenants << " argmin: "
              << stats.argmin_candidates << " candidates scanned, "
              << stats.argmin_bound_skips << " skipped by carried bounds ("
              << FormatPercent(skip_share, 1) << ")\n";

    // --- The same solve with four shards in flight ---------------------
    HierarchicalOptions fanned = hier_options;
    fanned.shard_jobs = 4;
    HierarchicalStats fanned_stats;
    t0 = std::chrono::steady_clock::now();
    auto fanned_plan = SolveHierarchical(*problem, fanned, &fanned_stats);
    const double fanned_seconds = SecondsSince(t0);
    if (!fanned_plan.ok()) {
      std::cerr << "shard_jobs=4 solve failed: " << fanned_plan.status()
                << "\n";
      return 1;
    }
    const uint64_t fanned_fp = GroupingFingerprint(*fanned_plan);
    if (fanned_fp != hier_fp) {
      identical = false;
      std::cout << "plan fingerprint drift at shard_jobs=4: "
                << Hex64(fanned_fp) << " != " << Hex64(hier_fp) << "\n";
    }
    report.AddMetric("hier_seconds_sj4" + suffix, fanned_seconds);
    report.AddMetric("hier_shard_solve_seconds_sj4" + suffix,
                     fanned_stats.shard_solve_seconds);
    report.AddMetric("hier_merge_seconds_sj4" + suffix,
                     fanned_stats.merge_seconds);
    report.AddMetric("hier_merge_share_sj4" + suffix,
                     fanned_stats.merge_seconds / fanned_seconds);
    report.AddMetric("hier_speedup_sj4" + suffix,
                     hier_seconds / fanned_seconds);
    std::cout << "n=" << num_tenants << " shard_jobs 1 -> 4: "
              << FormatDouble(hier_seconds, 1) << "s -> "
              << FormatDouble(fanned_seconds, 1) << "s ("
              << FormatDouble(hier_seconds / fanned_seconds, 2)
              << "x); merge share "
              << FormatDouble(100 * stats.merge_seconds / hier_seconds, 1)
              << "% -> "
              << FormatDouble(
                     100 * fanned_stats.merge_seconds / fanned_seconds, 1)
              << "%\n";

    // --- Flat baseline (bounded by --flat-max-tenants) -----------------
    if (num_tenants <= flat_max_tenants) {
      t0 = std::chrono::steady_clock::now();
      auto flat = SolveTwoStep(*problem);
      const double flat_seconds = SecondsSince(t0);
      if (!flat.ok()) {
        std::cerr << "flat solve failed: " << flat.status() << "\n";
        return 1;
      }
      verified = VerifySolution(*problem, *flat);
      if (!verified.ok()) {
        std::cerr << "flat plan failed verification: " << verified << "\n";
        return 1;
      }
      const double flat_eff =
          flat->ConsolidationEffectiveness(config.replication_factor,
                                           requested);
      table.AddRow({std::to_string(num_tenants), "flat", "flat",
                    std::to_string(flat->groups.size()),
                    std::to_string(
                        flat->NodesUsed(config.replication_factor)),
                    std::to_string(requested), FormatDouble(flat_eff, 4),
                    Hex64(GroupingFingerprint(*flat))});
      report.AddMetric("flat_seconds" + suffix, flat_seconds);
      last_flat_seconds = flat_seconds;
      last_flat_tenants = num_tenants;

      const double gap_pp = (flat_eff - hier_eff) * 100.0;
      report.AddMetric("effectiveness_gap_pp" + suffix, gap_pp);
      std::cout << "n=" << num_tenants << " flat: eff "
                << FormatDouble(flat_eff, 4) << " in "
                << FormatDouble(flat_seconds, 1) << "s; gap "
                << FormatDouble(gap_pp, 2) << "pp, speedup "
                << FormatDouble(flat_seconds / hier_seconds, 1) << "x\n";
      report.Gate("effectiveness_within_2pp" + suffix, gap_pp <= 2.0,
                  "n=" + std::to_string(num_tenants) +
                      " hierarchical effectiveness within 2pp of flat");
    } else if (last_flat_tenants > 0) {
      // The flat solver is ~quadratic in the dominant size class; report
      // what this point would have cost it.
      const double ratio = static_cast<double>(num_tenants) /
                           static_cast<double>(last_flat_tenants);
      report.AddMetric("flat_predicted_seconds" + suffix,
                       last_flat_seconds * ratio * ratio);
    }

    // --- Parallelism identity cross (first point only) -----------------
    if (point == 0) {
      for (int shard_jobs : {1, 2, 4}) {
        for (int solver_jobs : {1, 2, 4}) {
          // The shard_jobs 1 and 4 cells at the point's solver_jobs were
          // solved above; every configuration is solved once per point.
          const GroupingSolution* solution = nullptr;
          if (solver_jobs == hier_options.solver_jobs) {
            if (shard_jobs == hier_options.shard_jobs) solution = &*hier;
            if (shard_jobs == fanned.shard_jobs) solution = &*fanned_plan;
          }
          std::optional<GroupingSolution> solved;
          if (solution == nullptr) {
            HierarchicalOptions cross = hier_options;
            cross.shard_jobs = shard_jobs;
            cross.solver_jobs = solver_jobs;
            auto result = SolveHierarchical(*problem, cross);
            if (!result.ok()) {
              std::cerr << "cross solve failed: " << result.status() << "\n";
              return 1;
            }
            solution = &solved.emplace(*std::move(result));
          }
          const uint64_t fp = GroupingFingerprint(*solution);
          const std::string config_text =
              "sj=" + std::to_string(shard_jobs) + ",j=" +
              std::to_string(solver_jobs);
          table.AddRow({std::to_string(num_tenants), "hierarchical",
                        config_text, std::to_string(solution->groups.size()),
                        std::to_string(
                            solution->NodesUsed(config.replication_factor)),
                        std::to_string(requested),
                        FormatDouble(hier_eff, 4), Hex64(fp)});
          if (fp != hier_fp) {
            identical = false;
            std::cout << "plan fingerprint drift at " << config_text << ": "
                      << Hex64(fp) << " != " << Hex64(hier_fp) << "\n";
          }
        }
      }
    }
  }
  report.Gate("fingerprints_identical_across_parallelism", identical,
              "plan fingerprints identical across shard_jobs x solver_jobs");

  report.GatePins("expected_plan_fingerprint_match", pins, {first_plan_fp});

  report.AddText(
      "note",
      "The claims are the asymptotic wall-time curve vs the flat solver, "
      "the shard_jobs 1 -> 4 speedup and merge share per point (_sj4 "
      "metrics), and byte-identical plan fingerprints at every shard_jobs "
      "x solver_jobs (config sj=shard_jobs, j=solver_jobs). Flat rows exist "
      "only at points <= --flat-max-tenants so the table is a pure function "
      "of the flags.");
  report.SetResultsTable(table);
  return report.Finish();
}
