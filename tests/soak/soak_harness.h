// cppsuite-style soak harness for the streaming service.
//
// One reusable driver behind the stress tests and the soak bench: it
// generates a tenant population (§7.1 Steps 1+2), opens a StreamingService
// on a virtual clock, and feeds it a deterministic schedule of register /
// deregister / activity-drift events plus closed-loop SLA feedback — per
// cycle the harness models each group's violation rate from its solved TTP
// and reports it as a kSlaReport event, so the violation-budget controller
// has real dynamics to steer and a replay of the recorded log trivially
// reproduces them. Optionally every plan is applied to a simulated cluster
// through the Deployment Master, and a node failure can be injected
// mid-soak to exercise failure-triggered repair.

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

}  // namespace soak
}  // namespace thrifty

#endif  // THRIFTY_TESTS_SOAK_SOAK_HARNESS_H_
