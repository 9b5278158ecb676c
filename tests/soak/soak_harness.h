// cppsuite-style soak harness for the streaming service.
//
// The one soak driver behind the soak tests, bench_streaming_soak and
// bench_churn_soak: it generates a tenant population (§7.1 Steps 1+2),
// opens a StreamingService on a virtual clock, and feeds it a deterministic
// schedule of register / deregister / activity-drift events plus
// closed-loop SLA feedback — per cycle the harness models each group's
// violation rate from its solved TTP and reports it as a kSlaReport event,
// so the violation-budget controller has real dynamics to steer and a
// replay of the recorded log trivially reproduces them. Optionally every
// plan is applied to a simulated cluster through the Deployment Master, a
// node failure can be injected mid-soak to exercise failure-triggered
// repair, and every churn cycle can be compared against a cold full solve
// of the same tenants.
//
// Invariant: after every cycle — live, replayed or cold — the plan must
// place each registered tenant exactly once; RunSoak and ReplaySoak return
// a non-OK Status naming the cycle otherwise.

#ifndef THRIFTY_TESTS_SOAK_SOAK_HARNESS_H_
#define THRIFTY_TESTS_SOAK_SOAK_HARNESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "service/streaming_service.h"

namespace thrifty {
namespace soak {

/// \brief Scenario knobs. Defaults are the CI smoke scale; the --long soak
/// raises tenants/cycles.
struct SoakConfig {
  int initial_tenants = 120;
  int cycles = 5;
  /// Tenants de-registered = freshly registered per cycle (from cycle 1 on;
  /// cycle 0 is the initial consolidation).
  int churn_per_cycle = 3;
  /// Tenants whose activity drifts (log thinned by 2x) per cycle.
  int drift_per_cycle = 2;
  int horizon_days = 3;
  int sessions_per_class = 10;
  uint64_t seed = 42;
  int solver_jobs = 1;
  int replication_factor = 3;
  SimDuration cycle_period = kHour;
  /// Inject a node failure into the most-populated group right before this
  /// cycle's mark (0-based); -1 disables.
  int fail_group_at_cycle = -1;
  /// Apply every plan delta to a simulated cluster through the Deployment
  /// Master (replays run without one and must still match byte-for-byte).
  bool deploy = true;
  /// Feedback model: a group's observed violation rate is
  /// amplification * (1 - ttp), capped at 1 — the raw 1 - ttp of a freshly
  /// solved group is pinned near zero by the solver's safety margin, so
  /// without amplification the controller would only ever relax.
  double amplification = 20.0;
  SlaControllerOptions controller;
  /// ReconsolidationOptions::activity_delta_threshold for the per-cycle
  /// delta solves.
  double activity_delta_threshold = 0.003;
  /// After every churn cycle (cycle 1 on) of a live soak, a fresh service
  /// on-boards the registered tenants with their current history and
  /// solves them from an empty plan under that cycle's P
  /// (SoakOutcome::cold_baselines). Replays ignore it.
  bool cold_baseline = false;
};

/// \brief The churn soak's scenario: a population that turns over a few
/// tenants and drifts a few more each cycle, with the cold baseline on, no
/// cluster, and a zero-gain controller so P stays at its initial 99.9%.
/// `smoke` is the CI scale.
SoakConfig ChurnSoakConfig(bool smoke);

/// \brief One churn cycle measured against a cold full solve.
struct ColdBaseline {
  /// Registered tenants both plans place.
  size_t tenants = 0;
  /// Effectiveness of the cold plan.
  double cold_effectiveness = 0;
  /// Wall seconds of the live (delta) cycle and of the cold cycle; not
  /// deterministic.
  double live_seconds = 0;
  double cold_seconds = 0;
};

/// \brief Everything the soak gates compare between a live run and a
/// replay of its recorded event log.
struct SoakOutcome {
  std::vector<CycleDecision> decisions;
  /// Deployment plan after each cycle (index = cycle).
  std::vector<DeploymentPlan> plans;
  /// Violation rate fed to the controller before each cycle's mark (0 for
  /// cycle 0, which has no feedback yet).
  std::vector<double> observed_violation_rates;
  std::vector<double> controller_trajectory;
  std::string encoded_log;
  uint64_t event_log_fingerprint = 0;
  uint64_t decision_fingerprint = 0;
  uint64_t controller_fingerprint = 0;
  /// Smallest P any cycle solved under (the sound bound for feasibility
  /// verification of carried-over groups).
  double min_sla_fraction = 1.0;
  std::vector<TenantSpec> final_specs;
  std::vector<TenantLog> final_history;
  /// Group the injected node failure hit; -1 when disabled.
  GroupId failed_group = -1;
  double total_solve_wall_ms = 0;
  /// One entry per churn cycle (index = cycle - 1) when
  /// SoakConfig::cold_baseline is on; empty otherwise and in replays.
  std::vector<ColdBaseline> cold_baselines;
};

/// \brief Service options the soak runs under — shared by RunSoak and
/// ReplaySoak so a replay is configured identically to its live run (only
/// solver_jobs may legitimately differ; fingerprints must not).
StreamingServiceOptions MakeServiceOptions(const SoakConfig& config);

/// \brief Live soak: workload generation, event schedule, feedback loop,
/// optional cluster deployment, `cycles` re-consolidation cycles.
Result<SoakOutcome> RunSoak(const SoakConfig& config);

/// \brief Replays an encoded event log through a fresh service (no
/// cluster, no clock) and returns the same outcome surface.
Result<SoakOutcome> ReplaySoak(const SoakConfig& config,
                               std::string_view encoded_log);

/// \brief Replays `live`'s event log once per `solver_jobs` value under
/// `config`. OK when every replay reproduces every fingerprint surface of
/// `live` (event log, decisions, controller trajectory, min P, per-cycle
/// plans); otherwise names the replay and the first surface that
/// diverged. Each replay's wall seconds are appended to `replay_seconds`
/// when it is non-null.
Status CheckReplays(const SoakConfig& config, const SoakOutcome& live,
                    const std::vector<int>& solver_jobs,
                    std::vector<double>* replay_seconds = nullptr);

}  // namespace soak
}  // namespace thrifty

#endif  // THRIFTY_TESTS_SOAK_SOAK_HARNESS_H_
