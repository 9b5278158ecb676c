// Churn soak: delta re-consolidation vs cold full solves over a sequence
// of register / de-register / activity-drift cycles of the streaming
// service (the live re-consolidation cycle of Chapter 3, §5.1).
//
// The scenario is soak::ChurnSoakConfig, run by the soak harness
// (tests/soak): a live service on-boards the starting tenants and runs
// cycle 0 (the initial deployment); each churn cycle then de-registers a
// few tenants, registers fresh ones from a reserve pool, drifts a few
// others (stride-2 thinning of their stored query history, halving their
// active ratio) and closes with a cycle mark. The controller's gain is 0,
// so P stays at its initial 99.9%. Two plans are compared every churn
// cycle:
//
//   - delta: the live service's cycle — the delta re-consolidation
//     planner with activity-drift screening and a warm-started re-solve.
//     Untouched groups are carried over byte-identically (ids kept); only
//     affected groups are re-grouped, with group repair keeping feasible
//     seed structure.
//   - cold: the harness's cold baseline — a fresh service on-boards the
//     live service's registered tenants with their current history and
//     runs one cycle from an empty plan under the same P.
//
// The soak gates (exit 1 on failure):
//   - determinism: the live event log replayed at --solver-jobs 1, 2, and
//     4 reproduces every fingerprint surface of the live run (decisions,
//     per-cycle plans, controller, event log) byte for byte;
//   - coverage: the harness invariant — every registered tenant appears in
//     the delta and cold plans exactly once, every cycle (replays check it
//     too, so a replayed breach fails the determinism gate);
//   - effectiveness: per cycle, the delta plan's consolidation
//     effectiveness is within 1pp of the cold plan's;
//   - speed (full scenario only): summed over cycles, the delta service
//     cycle is at least 10x faster than the cold one.
//
// Extra flag: --smoke shrinks the scenario to T=260 tenants, a 3-day
// horizon, and 2 churn cycles for CI; the speed ratio is reported but not
// gated there (sub-second timings are too noisy).

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "common/fnv.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "placement/deployment_plan.h"
#include "service/streaming_service.h"
#include "soak/soak_harness.h"

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "churn_soak";
  bool smoke = false;
  BenchOptions options = ParseBenchArgs(
      argc, argv, bench_name, kSolverJobsFlag | kSeedFlag,
      {SwitchFlag("--smoke", &smoke,
                  "  T=260 tenants, 3-day horizon, 2 cycles (CI scale)")});
  BenchReport report(bench_name, options);

  soak::SoakConfig config = soak::ChurnSoakConfig(smoke);
  config.seed = options.seed;
  config.solver_jobs = options.solver_jobs;
  const int churn_cycles = config.cycles - 1;

  PrintBanner(
      "Churn soak: delta re-consolidation vs cold full solves",
      "T=" + std::to_string(config.initial_tenants) + " initial, " +
          std::to_string(churn_cycles) + " cycles of " +
          std::to_string(config.churn_per_cycle) + " dereg + " +
          std::to_string(config.churn_per_cycle) + " new + " +
          std::to_string(config.drift_per_cycle) + " drifted, " +
          std::to_string(config.horizon_days) + "-day horizon." +
          (smoke ? " [--smoke scenario]" : ""));

  // RunSoak fails when the harness's exactly-once coverage invariant
  // breaks after a live or cold cycle.
  auto live = soak::RunSoak(config);
  report.Gate("coverage_check_passed", live.ok(),
              "every registered tenant placed exactly once every cycle");
  if (!live.ok()) {
    std::cout << "live soak failed: " << live.status() << "\n";
    return report.Finish();
  }

  bool effectiveness_ok = true;
  double delta_total = 0;
  double cold_total = 0;
  std::string plan_stream;

  TablePrinter table({"cycle", "tenants", "untouched", "re-solved",
                      "drifted", "absorbers", "repaired", "evicted",
                      "missing", "delta eff", "cold eff"});
  TablePrinter timings({"cycle", "delta (s)", "cold (s)", "speedup"});
  for (int c = 1; c < config.cycles; ++c) {
    const CycleDecision& d = live->decisions[c];
    const DeploymentPlan& plan = live->plans[c];
    const soak::ColdBaseline& baseline = live->cold_baselines[c - 1];
    const double delta_eff = plan.ConsolidationEffectiveness();
    const double cold_eff = baseline.cold_effectiveness;
    plan_stream += CanonicalMembershipStream(plan);

    const double delta_pp = (delta_eff - cold_eff) * 100;
    if (std::abs(delta_pp) > 1.0) effectiveness_ok = false;
    delta_total += baseline.live_seconds;
    cold_total += baseline.cold_seconds;

    const std::string n = std::to_string(c);
    table.AddRow({n, std::to_string(baseline.tenants),
                  std::to_string(d.untouched_groups.size()),
                  std::to_string(d.resolved_groups.size()),
                  std::to_string(d.drifted_groups),
                  std::to_string(d.absorber_groups),
                  std::to_string(d.warm_groups_repaired),
                  std::to_string(d.warm_members_evicted),
                  std::to_string(d.warm_members_missing),
                  FormatPercent(delta_eff, 2), FormatPercent(cold_eff, 2)});
    timings.AddRow({n, FormatDouble(baseline.live_seconds, 3),
                    FormatDouble(baseline.cold_seconds, 3),
                    FormatDouble(baseline.cold_seconds /
                                     std::max(baseline.live_seconds, 1e-9),
                                 1)});
    report.AddMetric("delta_solve_seconds_c" + n, baseline.live_seconds);
    report.AddMetric("cold_solve_seconds_c" + n, baseline.cold_seconds);
    report.AddMetric("delta_effectiveness_c" + n, delta_eff);
    report.AddMetric("cold_effectiveness_c" + n, cold_eff);
    report.AddMetric("eff_delta_pp_c" + n, delta_pp);
  }

  // Determinism: the recorded log replayed at each solver parallelism must
  // reproduce every cycle decision (plan fingerprints included).
  const Status replays = soak::CheckReplays(config, *live, {1, 2, 4});
  if (!replays.ok()) std::cout << replays << "\n";

  table.Print(std::cout);
  std::cout << "\nService cycle wall-clock (non-deterministic, excluded from "
               "the fingerprint):\n";
  timings.Print(std::cout);

  const double speedup = cold_total / std::max(delta_total, 1e-9);
  const bool speed_ok = smoke || speedup >= 10.0;
  std::cout << "\nTotal: delta " << FormatDouble(delta_total, 3)
            << " s vs cold " << FormatDouble(cold_total, 3) << " s -> "
            << FormatDouble(speedup, 1) << "x"
            << (smoke ? " (not gated in --smoke)" : " (gate: >= 10x)")
            << "\n";
  const std::string fp = Hex64(Fnv1a64(plan_stream));
  std::cout << "Delta plan fingerprint: " << fp
            << (replays.ok() ? " (replay identical at solver-jobs 1/2/4)"
                             : " (MISMATCH across solver-jobs!)")
            << "\n";

  report.SetResultsTable(table);
  report.AddText("delta_plan_fnv1a", fp);
  report.AddMetric("delta_solve_seconds_total", delta_total);
  report.AddMetric("cold_solve_seconds_total", cold_total);
  report.AddMetric("delta_speedup_x", speedup);
  std::cout << "\n";
  report.Gate("determinism_check_passed", replays.ok(),
              "replays identical at solver-jobs 1/2/4");
  report.Gate("effectiveness_check_passed", effectiveness_ok,
              "delta effectiveness within 1pp of cold every cycle");
  report.Gate("speedup_check_passed", speed_ok,
              "delta speedup >= 10x over cold (full scale only)");
  report.AddMetric("cycles", static_cast<double>(churn_cycles));
  return report.Finish();
}
