// The online streaming service mode (Chapter 3 run live).
//
// StreamingService consumes the totally-ordered TenantEvent stream
// (event_stream.h), batches events between cycle marks, and runs one
// re-consolidation cycle per mark: the Tempo-style violation-budget
// controller turns the batch's SLA feedback into the cycle's performance
// guarantee P, ReconsolidationPlanner delta-solves the affected groups
// under that P, and the resulting plan delta is applied through the
// Deployment Master (dissolved groups undeployed first, fresh groups
// deployed after).
//
// Determinism contract: the service is a pure function of its event log.
// Cycle boundaries are themselves recorded events (kCycleMark) — in live
// mode the attached VirtualClock only decides *where* the marks land; once
// recorded, replaying the log re-runs every cycle without consulting any
// clock. Replaying the same log therefore yields byte-identical cycle
// decisions (DecisionFingerprint), plan fingerprints (PlanFingerprint),
// and controller trajectories at any AdvisorOptions::solver_jobs and under
// SIMD or forced-scalar dispatch, and the replayed service re-encodes a
// byte-identical event log.

#ifndef THRIFTY_SERVICE_STREAMING_SERVICE_H_
#define THRIFTY_SERVICE_STREAMING_SERVICE_H_

#include <cstdint>
#include <map>
#include <unordered_set>
#include <vector>

#include "core/deployment_master.h"
#include "core/reconsolidation.h"
#include "service/event_stream.h"
#include "sim/clock_source.h"

namespace thrifty {

/// \brief Knobs of the violation-budget controller.
///
/// The controller tracks a violation budget B = 1 - P and nudges it toward
/// the configured per-cycle violation rate: observing a rate above target
/// shrinks the budget (stricter P for the next solve), a rate below target
/// relaxes it, reclaiming consolidation headroom. Updates are additive and
/// clamped — no libm, so trajectories are bit-reproducible everywhere.
struct SlaControllerOptions {
  /// Starting guarantee P (also the plan's sla_fraction on cycle 0).
  double initial_sla_fraction = 0.999;
  /// Per-cycle SLA violation rate the controller steers toward.
  double target_violation_rate = 0.02;
  /// Fraction of the observed-vs-target error applied per cycle. The
  /// budget band is only ~1e-2 wide, so gains near 1 bang-bang against the
  /// clamps; 0.1 converges in a few cycles without oscillating.
  double gain = 0.1;
  /// Clamp band for P: [min_sla_fraction, max_sla_fraction].
  double min_sla_fraction = 0.99;
  double max_sla_fraction = 0.9999;
};

/// \brief Tempo-style additive-update controller over the violation budget.
class SlaBudgetController {
 public:
  explicit SlaBudgetController(SlaControllerOptions options);

  /// \brief Current guarantee P.
  double sla_fraction() const { return sla_fraction_; }

  /// \brief Feeds one cycle's aggregate feedback and appends the resulting
  /// P to the trajectory. queries == 0 means no feedback arrived: P is
  /// held (but still recorded, keeping the trajectory one entry per cycle).
  void Observe(uint64_t queries, uint64_t violations);

  /// \brief P after each Observe call, in order.
  const std::vector<double>& trajectory() const { return trajectory_; }

  /// \brief FNV-1a over the trajectory's raw double bit patterns — the
  /// byte-identity surface of the controller replay gates.
  uint64_t TrajectoryFingerprint() const;

 private:
  SlaControllerOptions options_;
  double sla_fraction_;
  std::vector<double> trajectory_;
};

/// \brief Streaming service configuration.
struct StreamingServiceOptions {
  /// Planner knobs; reconsolidation.advisor.sla_fraction is overridden each
  /// cycle by the controller's current P.
  ReconsolidationOptions reconsolidation;
  SlaControllerOptions controller;
  /// Activity-history window the per-cycle solves are evaluated over
  /// (tenant logs ingested via kRegister events must cover it).
  SimTime history_begin = 0;
  SimTime history_end = 0;
  /// Live mode: Tick() emits a kCycleMark whenever the attached clock has
  /// advanced cycle_period past the previous mark.
  SimDuration cycle_period = kDay;
};

/// \brief What one re-consolidation cycle decided. Wall times are
/// measurements and the planner counters are derived accounting, not
/// decisions — both are excluded from the fingerprint.
struct CycleDecision {
  /// 0-based cycle index.
  uint64_t cycle = 0;
  /// The triggering kCycleMark's time.
  SimTime time = 0;
  /// Events consumed since the previous mark (the mark included).
  uint64_t events_consumed = 0;
  /// The guarantee P this cycle solved under (controller output).
  double sla_fraction = 0;
  /// Fingerprint of the plan this cycle produced.
  uint64_t plan_fingerprint = 0;
  /// Input-plan groups re-solved / carried over (planner accounting).
  std::vector<GroupId> resolved_groups;
  std::vector<GroupId> untouched_groups;
  /// Planner accounting (ReconsolidationOutput): resolved groups triggered
  /// by activity drift / opened as absorbers, and the re-solve's warm-start
  /// repair counts. NOT fingerprinted.
  size_t drifted_groups = 0;
  size_t absorber_groups = 0;
  size_t warm_groups_repaired = 0;
  size_t warm_members_evicted = 0;
  size_t warm_members_missing = 0;
  /// Plan delta actually applied: groups torn down / newly deployed.
  std::vector<GroupId> dissolved_groups;
  std::vector<GroupId> created_groups;
  /// Solver wall time (ms) of the delta re-solve. NOT fingerprinted.
  double solve_wall_ms = 0;
};

/// \brief Canonical byte stream of a decision (everything but wall times).
std::string CycleDecisionStream(const CycleDecision& decision);

/// \brief The online service: event stream in, cycle decisions out.
class StreamingService {
 public:
  explicit StreamingService(StreamingServiceOptions options);

  /// \brief Live mode wiring: cluster-applying master (optional — without
  /// one the service plans but does not deploy) and the clock Tick() reads.
  void AttachDeployment(DeploymentMaster* master) { master_ = master; }
  void AttachClock(const VirtualClock* clock) { clock_ = clock; }

  /// \brief Appends one event to the log and applies it. The sequence is
  /// re-stamped densely (callers never manage sequences); the time must be
  /// non-decreasing. A kCycleMark runs a re-consolidation cycle before
  /// Ingest returns. Invalid events (duplicate registration, unknown
  /// tenant, zero stride, ...) are rejected and NOT appended.
  Status Ingest(TenantEvent event);

  /// \brief Live mode: emits (and runs) a kCycleMark stamped with the
  /// attached clock's now if a full cycle_period has passed since the last
  /// mark (or if no cycle ran yet). Returns true when a cycle ran.
  Result<bool> Tick();

  /// \brief Replays an encoded event log from scratch: decodes, then
  /// ingests every event in order (marks re-run the cycles). The replayed
  /// service's decisions, fingerprints, and controller trajectory are
  /// byte-identical to the recorder's.
  static Result<StreamingService> Replay(std::string_view encoded_log,
                                         StreamingServiceOptions options,
                                         DeploymentMaster* master = nullptr);

  /// \brief The recorded stream (sequences stamped).
  const std::vector<TenantEvent>& event_log() const { return event_log_; }

  /// \brief Serializes the recorded stream (replays re-encode these exact
  /// bytes).
  std::string EncodeLog() const { return EncodeEventLog(event_log_); }

  /// \brief All cycle decisions so far.
  const std::vector<CycleDecision>& decisions() const { return decisions_; }

  /// \brief FNV-1a over the concatenated CycleDecisionStreams — the single
  /// value the soak's live-vs-replay gate compares.
  uint64_t DecisionFingerprint() const;

  const SlaBudgetController& controller() const { return controller_; }
  const DeploymentPlan& current_plan() const { return current_plan_; }

  /// \brief Smallest P any cycle solved under so far (1.0 before the first
  /// cycle) — the sound bound for feasibility checks across cycles.
  double min_sla_fraction() const { return min_sla_fraction_; }

  /// \brief Registered tenants in id order.
  std::vector<TenantSpec> RegisteredSpecs() const;

  /// \brief Current (drift-thinned) history in tenant-id order (a deep
  /// copy; cycles plan from the cached activity instead).
  std::vector<TenantLog> CurrentHistory() const;

  /// \brief Instances deployed for a group (empty without a master).
  std::vector<InstanceId> InstancesOf(GroupId group) const;

 private:
  Status Apply(const TenantEvent& event);
  /// Stores `log` as its tenant's history and re-derives its activity.
  void SetHistory(TenantLog log);
  Status RunCycle(const TenantEvent& mark);
  Status ApplyPlanDelta(const std::vector<GroupId>& dissolved,
                        const std::vector<GroupId>& created,
                        const DeploymentPlan& next_plan);

  StreamingServiceOptions options_;
  DeploymentMaster* master_ = nullptr;
  const VirtualClock* clock_ = nullptr;

  std::vector<TenantEvent> event_log_;
  std::vector<CycleDecision> decisions_;
  SlaBudgetController controller_;
  double min_sla_fraction_ = 1.0;

  /// Registered tenants, their (drift-thinned) history, and that
  /// history's activity over the options' window — derived once per log
  /// change, so cycles plan without touching a log.
  std::map<TenantId, TenantSpec> registered_;
  std::map<TenantId, TenantLog> history_;
  ActivityIndex activity_;

  /// Batched inputs for the next cycle.
  std::map<TenantId, TenantSpec> pending_new_;
  std::unordered_set<TenantId> pending_dereg_;
  std::unordered_set<GroupId> pending_failed_groups_;
  uint64_t pending_queries_ = 0;
  uint64_t pending_violations_ = 0;
  uint64_t events_since_mark_ = 0;

  DeploymentPlan current_plan_;
  /// Instances per deployed group (only populated with a master attached).
  std::map<GroupId, std::vector<InstanceId>> deployed_instances_;

  bool any_cycle_ran_ = false;
  SimTime last_mark_time_ = 0;
};

}  // namespace thrifty

#endif  // THRIFTY_SERVICE_STREAMING_SERVICE_H_
