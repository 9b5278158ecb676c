// Streaming-service soak: the online service mode driven end to end by the
// cppsuite-style harness (tests/soak), gated on byte-deterministic replay.
//
// One live soak runs the full loop — workload generation, tenant event
// stream, violation-budget controller, delta re-consolidation, simulated
// cluster deployment — and records its event log. The log is then replayed
// through fresh services at --solver-jobs 1, 2, and 4 (no cluster, no
// clock) and every fingerprint surface must match the live run byte for
// byte.
//
// The soak gates (exit 1 on failure):
//   - replay identity: event-log, decision, and controller-trajectory
//     fingerprints plus every per-cycle plan fingerprint are identical
//     between the live run and each replay (solver_jobs 1/2/4);
//   - controller band: the P trajectory stays inside the configured clamp
//     band over every cycle, and once feedback flows (cycle 1 on) the
//     observed violation rate stays within 5x of the steering target;
//   - coverage: the cycle count, plan count, and trajectory length agree.
//
// Reported (not gated): cycles/sec of the live soak, per-cycle solver wall
// time, the controller's P trajectory, and the stream fingerprints. The
// full scenario runs 400 tenants over 10 cycles; --smoke (CI) shrinks it
// to the ctest smoke scale.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fnv.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "service/streaming_service.h"
#include "soak/soak_harness.h"

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "streaming_soak";
  bool smoke = false;
  BenchOptions options = ParseBenchArgs(
      argc, argv, bench_name, kSolverJobsFlag | kSeedFlag,
      {SwitchFlag("--smoke", &smoke, "  ctest smoke scale (CI)")});
  BenchReport report(bench_name, options);

  soak::SoakConfig config;
  config.seed = options.seed;
  config.solver_jobs = options.solver_jobs;
  if (!smoke) {
    config.initial_tenants = 400;
    config.cycles = 10;
    config.churn_per_cycle = 8;
    config.drift_per_cycle = 5;
    config.horizon_days = 7;
    config.sessions_per_class = 25;
  }

  PrintBanner(
      "Streaming-service soak (online mode, byte-deterministic replay)",
      std::string("T=") + std::to_string(config.initial_tenants) + ", " +
          std::to_string(config.cycles) + " cycles, " +
          std::to_string(config.horizon_days) + "-day history, R=" +
          std::to_string(config.replication_factor) +
          (smoke ? " [--smoke scenario]" : ""));

  const double live_start = report.ElapsedSeconds();
  auto live = soak::RunSoak(config);
  if (!live.ok()) {
    std::cout << "live soak failed: " << live.status() << "\n";
    return 1;
  }
  const double live_seconds = report.ElapsedSeconds() - live_start;

  // Replay the recorded log at each solver parallelism; any fingerprint
  // drift is a determinism bug.
  const std::vector<int> jobs_values = {1, 2, 4};
  std::vector<double> replay_seconds;
  const Status replays =
      soak::CheckReplays(config, *live, jobs_values, &replay_seconds);
  const bool replay_identical = replays.ok();
  if (!replay_identical) std::cout << replays << "\n";

  // Controller band: P inside the clamp band every cycle; observed
  // violation rate within the steering band once feedback flows.
  bool controller_ok =
      live->controller_trajectory.size() ==
          static_cast<size_t>(config.cycles) &&
      live->observed_violation_rates.size() ==
          static_cast<size_t>(config.cycles);
  if (controller_ok) {
    for (double p : live->controller_trajectory) {
      if (p < config.controller.min_sla_fraction ||
          p > config.controller.max_sla_fraction) {
        controller_ok = false;
      }
    }
    for (size_t c = 1; c < live->observed_violation_rates.size(); ++c) {
      double rate = live->observed_violation_rates[c];
      if (rate <= 0.0 ||
          rate > 5.0 * config.controller.target_violation_rate) {
        controller_ok = false;
      }
    }
  }

  bool coverage_ok =
      live->decisions.size() == static_cast<size_t>(config.cycles) &&
      live->plans.size() == static_cast<size_t>(config.cycles);

  // Per-cycle table: everything here is deterministic (solver wall times
  // go to stdout + metrics only, never into the fingerprinted table).
  TablePrinter table({"cycle", "events", "P", "viol. rate", "groups",
                      "resolved", "untouched", "plan fnv1a"});
  TablePrinter timings({"cycle", "solve ms"});
  for (size_t c = 0; c < live->decisions.size(); ++c) {
    const CycleDecision& decision = live->decisions[c];
    table.AddRow({std::to_string(decision.cycle + 1),
                  std::to_string(decision.events_consumed),
                  FormatDouble(decision.sla_fraction, 6),
                  FormatPercent(live->observed_violation_rates[c], 2),
                  std::to_string(live->plans[c].groups.size()),
                  std::to_string(decision.resolved_groups.size()),
                  std::to_string(decision.untouched_groups.size()),
                  Hex64(decision.plan_fingerprint)});
    timings.AddRow({std::to_string(decision.cycle + 1),
                    FormatDouble(decision.solve_wall_ms, 2)});
    report.AddMetric("sla_fraction_c" + std::to_string(c + 1),
                     decision.sla_fraction);
    report.AddMetric("violation_rate_c" + std::to_string(c + 1),
                     live->observed_violation_rates[c]);
    report.AddMetric("solve_wall_ms_c" + std::to_string(c + 1),
                     decision.solve_wall_ms);
  }
  table.Print(std::cout);
  std::cout << "\nSolver wall per cycle (not fingerprinted):\n";
  timings.Print(std::cout);

  const double cycles_per_sec =
      static_cast<double>(config.cycles) / std::max(live_seconds, 1e-9);
  std::cout << "\nLive soak: " << FormatDouble(live_seconds, 3) << " s for "
            << config.cycles << " cycles -> "
            << FormatDouble(cycles_per_sec, 2) << " cycles/s (solver wall "
            << FormatDouble(live->total_solve_wall_ms, 2) << " ms total)\n";
  std::cout << "Event log:  " << live->encoded_log.size() << " bytes, fnv1a "
            << Hex64(live->event_log_fingerprint) << "\n";
  std::cout << "Decisions:  fnv1a " << Hex64(live->decision_fingerprint)
            << (replay_identical ? " (identical at solver-jobs 1/2/4)"
                                 : " (MISMATCH across replays!)")
            << "\n";
  std::cout << "Controller: fnv1a "
            << Hex64(live->controller_fingerprint) << ", min P "
            << FormatDouble(live->min_sla_fraction, 6)
            << (controller_ok ? " (in band)" : " (OUT OF BAND)") << "\n";

  report.SetResultsTable(table);
  report.AddText("event_log_fnv1a",
                 Hex64(live->event_log_fingerprint));
  report.AddText("decision_fnv1a",
                 Hex64(live->decision_fingerprint));
  report.AddText("controller_fnv1a",
                 Hex64(live->controller_fingerprint));
  report.AddMetric("cycles", static_cast<double>(config.cycles));
  report.AddMetric("cycles_per_sec", cycles_per_sec);
  report.AddMetric("live_soak_seconds", live_seconds);
  report.AddMetric("solve_wall_ms_total", live->total_solve_wall_ms);
  report.AddMetric("event_log_bytes",
                   static_cast<double>(live->encoded_log.size()));
  report.AddMetric("min_sla_fraction", live->min_sla_fraction);
  for (size_t i = 0; i < replay_seconds.size(); ++i) {
    report.AddMetric("replay_seconds_jobs" + std::to_string(jobs_values[i]),
                     replay_seconds[i]);
  }
  std::cout << "\n";
  report.Gate("replay_identity_check_passed", replay_identical,
              "replay fingerprints identical at solver-jobs 1/2/4");
  report.Gate("controller_band_check_passed", controller_ok,
              "controller P and violation rate in band");
  report.Gate("coverage_check_passed", coverage_ok,
              "one decision and one plan per cycle");
  return report.Finish();
}
