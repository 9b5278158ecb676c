// Solver-scaling bench: tracks the *intra-solve* parallelism delivered by
// --solver-jobs across the three threaded stages — workload composition
// (GenerateWorkload), the two-step heuristic, and the exact branch-and-
// bound — at solver_jobs = 1, 2, 4.
//
// The headline result is determinism: every stage's output fingerprint
// must be identical across job counts (the rows of the results table, and
// hence the results fingerprint, certify it). Wall-clock per stage and job
// count is reported as metrics, never fingerprinted, together with the
// two-step speedup over solver_jobs=1 and the hardware threads it was
// measured on (the JSON's two_step_speedup text).
//
// Extra flags: --tenants=N (default 2000) sizes the workload/two-step
// stage; --exact-tenants=N (default 12) sizes the synthetic exact-solver
// instance; --expect=<workload>,<two_step>,<exact> pins the three stage
// fingerprints (16-hex-digit each) and fails the run on any drift — CI
// uses this to catch solver-output regressions, not just cross-job
// nondeterminism.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "activity/activity_vector.h"
#include "bench_util.h"
#include "common/bitmap.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "placement/exact.h"
#include "placement/problem.h"
#include "placement/two_step.h"
#include "workload/tenant.h"

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "solver_scaling";
  int num_tenants = 2000;
  int exact_tenants = 12;
  FingerprintPins pins("--expect", {"workload", "two_step", "exact"});
  BenchOptions options = ParseBenchArgs(
      argc, argv, bench_name, kSeedFlag,
      {IntFlag("--tenants", &num_tenants, 1,
               "=N  tenants in the workload/two-step stage (default 2000)"),
       IntFlag("--exact-tenants", &exact_tenants, 1,
               "=N  tenants in the exact-solver instance (default 12)"),
       pins.Flag("=W,T,E  pinned workload,two_step,exact fingerprints "
                 "(16 hex digits each)")});
  BenchReport report(bench_name, options);

  PrintBanner("Solver scaling: --solver-jobs inside one solve",
              "workload T=" + std::to_string(num_tenants) +
                  ", two-step on the same instance, exact B&B on " +
                  std::to_string(exact_tenants) +
                  " synthetic tenants; solver_jobs swept over {1, 2, 4} "
                  "(the bench's own --solver-jobs flag is ignored). "
                  "Fingerprints must be identical per stage.");

  QueryCatalog catalog = QueryCatalog::Default();
  const int jobs_list[] = {1, 2, 4};
  TablePrinter table({"stage", "solver_jobs", "fingerprint", "detail"});

  // --- Stage 1: workload composition ---------------------------------
  Workload base_workload;
  std::vector<uint64_t> workload_fps;
  for (int jobs : jobs_list) {
    ExperimentConfig config;
    config.num_tenants = num_tenants;
    config.seed = options.seed;
    config.solver_jobs = jobs;
    auto t0 = std::chrono::steady_clock::now();
    Workload workload = GenerateWorkload(catalog, config);
    report.AddMetric("workload_seconds_jobs" + std::to_string(jobs),
                     SecondsSince(t0));

    // Chained per tenant, so fingerprinting a multi-GB activity set never
    // materializes one giant string.
    uint64_t fp = kFnv1a64Offset;
    for (size_t i = 0; i < workload.activity.size(); ++i) {
      std::ostringstream os;
      os << workload.tenants[i].id << ":"
         << workload.tenants[i].time_zone_offset_hours << ";";
      for (const auto& iv : workload.activity[i].intervals()) {
        os << iv.begin << "-" << iv.end << ",";
      }
      fp = Fnv1a64(os.str(), fp);
    }
    workload_fps.push_back(fp);
    table.AddRow({"workload", std::to_string(jobs), Hex64(fp),
                  "avg_active=" +
                      FormatPercent(workload.average_active_ratio, 2)});
    if (jobs == 1) base_workload = std::move(workload);
  }

  // --- Stage 2: two-step heuristic on the shared instance -------------
  ExperimentConfig base_config;
  base_config.num_tenants = num_tenants;
  base_config.seed = options.seed;
  const auto vectors = EpochizeWorkload(base_workload, base_config.epoch_size);
  auto problem = MakePackingProblem(base_workload.tenants, vectors,
                                    base_config.replication_factor,
                                    base_config.sla_fraction);
  if (!problem.ok()) {
    std::cerr << "problem construction failed: " << problem.status() << "\n";
    return 1;
  }
  std::vector<uint64_t> two_step_fps;
  std::vector<double> two_step_seconds;
  std::string argmin_work = "two-step argmin work (deterministic):";
  for (int jobs : jobs_list) {
    TwoStepOptions two_step_options;
    two_step_options.solver_jobs = jobs;
    auto solution = SolveTwoStep(*problem, two_step_options);
    if (!solution.ok()) {
      std::cerr << "two-step failed: " << solution.status() << "\n";
      return 1;
    }
    Status valid = VerifySolution(*problem, *solution);
    if (!valid.ok()) {
      std::cerr << "two-step solution invalid: " << valid << "\n";
      return 1;
    }
    report.AddMetric("two_step_seconds_jobs" + std::to_string(jobs),
                     solution->solve_seconds);
    two_step_seconds.push_back(solution->solve_seconds);
    // Candidates scanned are the same at every jobs value; bound skips
    // depend on the shard count, since each scan shard starts with no
    // incumbent.
    const std::string job_suffix = "_jobs" + std::to_string(jobs);
    report.AddMetric("two_step_argmin_candidates" + job_suffix,
                     static_cast<double>(solution->argmin_candidates));
    report.AddMetric("two_step_argmin_bound_skips" + job_suffix,
                     static_cast<double>(solution->argmin_bound_skips));
    argmin_work += " jobs=" + std::to_string(jobs) + " " +
                   std::to_string(solution->argmin_candidates) +
                   " candidates, " +
                   std::to_string(solution->argmin_bound_skips) +
                   " bound skips;";

    const uint64_t fp = GroupingFingerprint(*solution);
    two_step_fps.push_back(fp);
    table.AddRow(
        {"two_step", std::to_string(jobs), Hex64(fp),
         "groups=" + std::to_string(solution->groups.size()) + " nodes=" +
             std::to_string(solution->NodesUsed(
                 base_config.replication_factor))});
  }

  // --- Stage 3: exact branch-and-bound on a synthetic instance --------
  // Overlapping random spans at R=2, P=0.95 keep the B&B tree constrained
  // enough to finish in seconds while still branching widely.
  const size_t exact_epochs = 240;
  Rng exact_rng(options.SeedOr(42) ^ 0xe9ac7ull);
  std::vector<ActivityVector> exact_activities;
  std::vector<TenantSpec> exact_specs;
  const int exact_sizes[] = {2, 4};
  for (int id = 1; id <= exact_tenants; ++id) {
    DynamicBitmap bits(exact_epochs);
    size_t begin = exact_rng.NextBounded(exact_epochs);
    bits.SetRange(begin, begin + 10 + exact_rng.NextBounded(60));
    exact_activities.push_back(
        ActivityVector::FromBitmap(static_cast<TenantId>(id), bits));
    TenantSpec spec;
    spec.id = static_cast<TenantId>(id);
    spec.requested_nodes = exact_sizes[exact_rng.NextBounded(2)];
    exact_specs.push_back(spec);
  }
  auto exact_problem = MakePackingProblem(exact_specs, exact_activities,
                                          /*replication_factor=*/2,
                                          /*sla_fraction=*/0.95);
  if (!exact_problem.ok()) {
    std::cerr << "exact problem construction failed: "
              << exact_problem.status() << "\n";
    return 1;
  }
  std::vector<uint64_t> exact_fps;
  for (int jobs : jobs_list) {
    ExactSolverOptions exact_options;
    exact_options.solver_jobs = jobs;
    auto t0 = std::chrono::steady_clock::now();
    auto solution = SolveExact(*exact_problem, exact_options);
    if (!solution.ok()) {
      std::cerr << "exact solver failed: " << solution.status() << "\n";
      return 1;
    }
    report.AddMetric("exact_seconds_jobs" + std::to_string(jobs),
                     SecondsSince(t0));

    const uint64_t fp = GroupingFingerprint(*solution);
    exact_fps.push_back(fp);
    table.AddRow({"exact", std::to_string(jobs), Hex64(fp),
                  "groups=" + std::to_string(solution->groups.size()) +
                      " nodes=" + std::to_string(solution->NodesUsed(2))});
  }

  table.Print(std::cout);

  auto all_equal = [](const std::vector<uint64_t>& fps) {
    for (uint64_t fp : fps) {
      if (fp != fps.front()) return false;
    }
    return true;
  };
  const bool identical = all_equal(workload_fps) && all_equal(two_step_fps) &&
                         all_equal(exact_fps);
  std::cout << "\n";
  report.Gate("fingerprints_identical", identical,
              "fingerprint identity across solver_jobs {1, 2, 4}");
  report.GatePins("expected_fingerprints_match", pins,
                  {workload_fps.front(), two_step_fps.front(),
                   exact_fps.front()});

  report.SetResultsTable(table);
  report.AddText("identity_check",
                 identical ? "jobs1==jobs2==jobs4 for every stage"
                           : "MISMATCH — parallel solver is nondeterministic");
  std::string speedup = "two-step speedup over solver_jobs=1:";
  for (size_t i = 1; i < two_step_seconds.size(); ++i) {
    const double x = two_step_seconds[0] / std::max(two_step_seconds[i], 1e-9);
    report.AddMetric("two_step_speedup_jobs" + std::to_string(jobs_list[i]),
                     x);
    speedup += " " + FormatDouble(x, 2) + "x at " +
               std::to_string(jobs_list[i]) + ",";
  }
  speedup += " measured on " +
             std::to_string(std::thread::hardware_concurrency()) +
             " hardware threads (wall time, not fingerprinted)";
  std::cout << speedup << "\n" << argmin_work << "\n";
  report.AddText("two_step_speedup", speedup);
  report.AddText(
      "workload_fp_provenance",
      "the default-size workload fingerprint moved 3f9ddfba0cebb1fc -> "
      "90881cbb975b2783 when the virtual-time PS executor replaced the "
      "decremented remaining-time arithmetic with immutable finish tags in "
      "Step-1 session simulation: every session keeps the same interval "
      "count but endpoints shift by sub-epoch amounts. Benign and "
      "deterministic — the epochized vectors at E=10s, and therefore the "
      "two_step/exact fingerprints, never moved; all three are now pinned "
      "in CI via --expect at both bench sizes");
  return report.Finish();
}
