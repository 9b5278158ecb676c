#include "soak/soak_harness.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_set>
#include <utility>

#include "common/fnv.h"
#include "common/rng.h"
#include "core/deployment_master.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "routing/query_router.h"
#include "sim/clock_source.h"
#include "sim/engine.h"
#include "workload/log_generator.h"
#include "workload/tenant_population.h"

namespace thrifty {
namespace soak {

namespace {

/// Activity intervals as a registrable query log (the activity-only form
/// the churn soak uses: one entry per interval, latency = its length).
std::vector<QueryLogEntry> EntriesFor(const IntervalSet& activity) {
  std::vector<QueryLogEntry> entries;
  entries.reserve(activity.size());
  for (const auto& interval : activity.intervals()) {
    entries.push_back({interval.begin, 0, interval.length(), -1});
  }
  return entries;
}

/// The harness's SLA feedback model over the currently deployed plan.
void ModelFeedback(const DeploymentPlan& plan, double amplification,
                   uint64_t* queries, uint64_t* violations) {
  *queries = 0;
  *violations = 0;
  for (const auto& group : plan.groups) {
    uint64_t group_queries = 40 + 20 * group.tenants.size();
    double rate = amplification * (1.0 - group.ttp);
    if (rate > 1.0) rate = 1.0;
    if (rate < 0.0) rate = 0.0;
    uint64_t group_violations = static_cast<uint64_t>(
        static_cast<double>(group_queries) * rate + 0.5);
    if (group_violations > group_queries) group_violations = group_queries;
    *queries += group_queries;
    *violations += group_violations;
  }
}

/// Deterministic failure target: the most-populated group (ties to the
/// lowest id), so the repair re-solve has real members to re-place.
GroupId PickFailureGroup(const DeploymentPlan& plan) {
  GroupId chosen = -1;
  size_t best = 0;
  for (const auto& group : plan.groups) {
    if (group.tenants.size() > best ||
        (group.tenants.size() == best && chosen != -1 &&
         group.group_id < chosen)) {
      best = group.tenants.size();
      chosen = group.group_id;
    }
  }
  return chosen;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The harness invariant: `plan` places every tenant of `specs` (id order)
/// exactly once and no one else.
Status CheckExactlyOnce(const DeploymentPlan& plan,
                        const std::vector<TenantSpec>& specs,
                        const std::string& what) {
  std::vector<TenantId> placed;
  for (const auto& group : plan.groups) {
    for (const auto& tenant : group.tenants) placed.push_back(tenant.id);
  }
  std::sort(placed.begin(), placed.end());
  bool exact = placed.size() == specs.size();
  for (size_t i = 0; exact && i < specs.size(); ++i) {
    exact = placed[i] == specs[i].id;
  }
  if (exact) return Status::OK();
  return Status::Internal(what + ": " + std::to_string(placed.size()) +
                          " placements do not cover the " +
                          std::to_string(specs.size()) +
                          " registered tenants exactly once");
}

/// A fresh service on-boards `live`'s registered tenants with their
/// current history and runs one cycle from an empty plan under the P of
/// `live`'s last cycle.
Result<ColdBaseline> RunColdBaseline(const SoakConfig& config,
                                     const StreamingService& live) {
  const CycleDecision& decision = live.decisions().back();
  StreamingServiceOptions options = MakeServiceOptions(config);
  options.controller.initial_sla_fraction = decision.sla_fraction;
  StreamingService cold(options);
  // Registered specs and history are both id-ordered over the same
  // tenants between cycles.
  const std::vector<TenantSpec> specs = live.RegisteredSpecs();
  std::vector<TenantLog> history = live.CurrentHistory();
  // Timed like the live cycle, from the batch's first Ingest through the
  // mark: ingest derives each tenant's activity, so both sides pay for it.
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < specs.size(); ++i) {
    THRIFTY_RETURN_NOT_OK(cold.Ingest(MakeRegisterEvent(
        decision.time, specs[i], std::move(history[i].entries))));
  }
  THRIFTY_RETURN_NOT_OK(cold.Ingest(MakeCycleMarkEvent(decision.time)));
  ColdBaseline baseline;
  baseline.cold_seconds = SecondsSince(start);
  baseline.tenants = specs.size();
  baseline.cold_effectiveness =
      cold.current_plan().ConsolidationEffectiveness();
  THRIFTY_RETURN_NOT_OK(CheckExactlyOnce(
      cold.current_plan(), specs,
      "cold baseline of cycle " + std::to_string(decision.cycle)));
  return baseline;
}

/// OK when `replay` reproduces every fingerprint surface of `live`;
/// otherwise names the first surface that diverged.
Status OutcomesMatch(const SoakOutcome& live, const SoakOutcome& replay) {
  if (replay.encoded_log != live.encoded_log ||
      replay.event_log_fingerprint != live.event_log_fingerprint) {
    return Status::Internal("event log diverged");
  }
  if (replay.decision_fingerprint != live.decision_fingerprint) {
    return Status::Internal("decision fingerprint diverged");
  }
  if (replay.controller_fingerprint != live.controller_fingerprint) {
    return Status::Internal("controller trajectory diverged");
  }
  if (replay.min_sla_fraction != live.min_sla_fraction) {
    return Status::Internal("min P diverged");
  }
  if (replay.decisions.size() != live.decisions.size()) {
    return Status::Internal("cycle count diverged");
  }
  for (size_t i = 0; i < live.decisions.size(); ++i) {
    if (replay.decisions[i].plan_fingerprint !=
        live.decisions[i].plan_fingerprint) {
      return Status::Internal("cycle " + std::to_string(i) +
                              " plan fingerprint diverged");
    }
  }
  return Status::OK();
}

void FillOutcomeTail(const StreamingService& service, SoakOutcome* out) {
  out->decisions = service.decisions();
  out->controller_trajectory = service.controller().trajectory();
  out->encoded_log = service.EncodeLog();
  out->event_log_fingerprint = Fnv1a64(out->encoded_log);
  out->decision_fingerprint = service.DecisionFingerprint();
  out->controller_fingerprint = service.controller().TrajectoryFingerprint();
  out->min_sla_fraction = service.min_sla_fraction();
  out->final_specs = service.RegisteredSpecs();
  out->final_history = service.CurrentHistory();
  for (const CycleDecision& decision : out->decisions) {
    out->total_solve_wall_ms += decision.solve_wall_ms;
  }
}

}  // namespace

SoakConfig ChurnSoakConfig(bool smoke) {
  SoakConfig config;
  config.initial_tenants = smoke ? 260 : 1200;
  config.cycles = smoke ? 3 : 6;  // cycle 0 plus the churn cycles
  config.churn_per_cycle = smoke ? 5 : 6;
  config.drift_per_cycle = 3;
  config.horizon_days = smoke ? 3 : 14;
  config.sessions_per_class = 25;
  config.deploy = false;
  config.controller.gain = 0;
  config.cold_baseline = true;
  return config;
}

StreamingServiceOptions MakeServiceOptions(const SoakConfig& config) {
  StreamingServiceOptions options;
  options.reconsolidation.advisor.replication_factor =
      config.replication_factor;
  options.reconsolidation.advisor.sla_fraction =
      config.controller.initial_sla_fraction;
  options.reconsolidation.advisor.solver_jobs = config.solver_jobs;
  options.reconsolidation.activity_delta_threshold =
      config.activity_delta_threshold;
  options.controller = config.controller;
  options.history_begin = 0;
  options.history_end = static_cast<SimTime>(config.horizon_days) * kDay;
  options.cycle_period = config.cycle_period;
  return options;
}

Result<SoakOutcome> RunSoak(const SoakConfig& config) {
  // §7.1 Steps 1+2: session library, tenant population, activity logs.
  // Forked Rng streams keyed exactly like the benches', so the schedule is
  // a pure function of config.seed.
  QueryCatalog catalog = QueryCatalog::Default();
  Rng rng(config.seed);
  SessionLibrary library(&catalog, {2, 4, 8, 16, 32},
                         config.sessions_per_class, rng.Fork(1));
  PopulationOptions pop;
  Rng pop_rng = rng.Fork(2);
  const int total_tenants =
      config.initial_tenants + config.cycles * config.churn_per_cycle;
  THRIFTY_ASSIGN_OR_RETURN(
      std::vector<TenantSpec> tenants,
      GenerateTenantPopulation(total_tenants, pop, &pop_rng));
  LogComposerOptions composer_options;
  composer_options.horizon_days = config.horizon_days;
  LogComposer composer(&library, composer_options);
  Rng compose_rng = rng.Fork(3);
  THRIFTY_ASSIGN_OR_RETURN(std::vector<IntervalSet> activity,
                           composer.ComposeActivity(&tenants, &compose_rng));

  StreamingService service(MakeServiceOptions(config));
  VirtualClock clock;
  service.AttachClock(&clock);

  SimEngine engine;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<QueryRouter> router;
  std::unique_ptr<DeploymentMaster> master;
  if (config.deploy) {
    // R * sum(requested) bounds any plan (each group consumes R * its
    // largest member at most R * the sum of its members), so this pool can
    // never run dry mid-delta.
    int64_t pool = config.replication_factor * TotalRequestedNodes(tenants);
    cluster = std::make_unique<Cluster>(static_cast<int>(pool), &engine);
    router = std::make_unique<QueryRouter>();
    master = std::make_unique<DeploymentMaster>(cluster.get(), router.get());
    service.AttachDeployment(master.get());
  }

  SoakOutcome out;
  std::vector<size_t> registered;
  registered.reserve(static_cast<size_t>(config.initial_tenants));
  for (size_t i = 0; i < static_cast<size_t>(config.initial_tenants); ++i) {
    THRIFTY_RETURN_NOT_OK(service.Ingest(
        MakeRegisterEvent(0, tenants[i], EntriesFor(activity[i]))));
    registered.push_back(i);
  }
  size_t next_fresh = static_cast<size_t>(config.initial_tenants);

  Rng churn_rng = rng.Fork(4);
  for (int c = 0; c < config.cycles; ++c) {
    SimTime t = static_cast<SimTime>(c) * config.cycle_period + kSecond;
    double observed = 0;
    // A cycle's wall time runs from its batch's first Ingest through Tick().
    const auto cycle_start = std::chrono::steady_clock::now();
    if (c > 0) {
      for (int j = 0; j < config.churn_per_cycle; ++j) {
        size_t pos = churn_rng.NextBounded(registered.size());
        size_t index = registered[pos];
        registered[pos] = registered.back();
        registered.pop_back();
        THRIFTY_RETURN_NOT_OK(
            service.Ingest(MakeDeregisterEvent(t, tenants[index].id)));
        t += kSecond;
      }
      for (int j = 0; j < config.churn_per_cycle; ++j) {
        size_t index = next_fresh++;
        registered.push_back(index);
        THRIFTY_RETURN_NOT_OK(service.Ingest(MakeRegisterEvent(
            t, tenants[index], EntriesFor(activity[index]))));
        t += kSecond;
      }
      std::unordered_set<size_t> drifted;
      while (drifted.size() < static_cast<size_t>(config.drift_per_cycle)) {
        size_t index = registered[churn_rng.NextBounded(registered.size())];
        if (!drifted.insert(index).second) continue;
        THRIFTY_RETURN_NOT_OK(service.Ingest(
            MakeActivityDriftEvent(t, tenants[index].id, 2)));
        t += kSecond;
      }
      uint64_t queries = 0;
      uint64_t violations = 0;
      ModelFeedback(service.current_plan(), config.amplification, &queries,
                    &violations);
      observed = queries > 0 ? static_cast<double>(violations) /
                                   static_cast<double>(queries)
                             : 0.0;
      THRIFTY_RETURN_NOT_OK(service.Ingest(
          MakeSlaReportEvent(t, static_cast<uint32_t>(queries),
                             static_cast<uint32_t>(violations))));
      t += kSecond;
      if (c == config.fail_group_at_cycle) {
        GroupId target = PickFailureGroup(service.current_plan());
        if (target != -1) {
          out.failed_group = target;
          if (config.deploy) {
            std::vector<InstanceId> instances = service.InstancesOf(target);
            if (!instances.empty()) {
              THRIFTY_RETURN_NOT_OK(cluster->InjectNodeFailure(
                  instances[0], /*auto_replace=*/false));
            }
          }
          THRIFTY_RETURN_NOT_OK(
              service.Ingest(MakeGroupFailureEvent(t, target)));
          t += kSecond;
        }
      }
    }
    out.observed_violation_rates.push_back(observed);
    clock.AdvanceTo(static_cast<SimTime>(c + 1) * config.cycle_period);
    THRIFTY_ASSIGN_OR_RETURN(bool ran, service.Tick());
    const double cycle_seconds = SecondsSince(cycle_start);
    if (!ran) {
      return Status::Internal("cycle " + std::to_string(c) +
                              " did not run (clock did not advance?)");
    }
    out.plans.push_back(service.current_plan());
    THRIFTY_RETURN_NOT_OK(CheckExactlyOnce(service.current_plan(),
                                           service.RegisteredSpecs(),
                                           "cycle " + std::to_string(c)));
    if (config.cold_baseline && c > 0) {
      THRIFTY_ASSIGN_OR_RETURN(ColdBaseline baseline,
                               RunColdBaseline(config, service));
      baseline.live_seconds = cycle_seconds;
      out.cold_baselines.push_back(baseline);
    }
  }

  FillOutcomeTail(service, &out);
  return out;
}

Result<SoakOutcome> ReplaySoak(const SoakConfig& config,
                               std::string_view encoded_log) {
  THRIFTY_ASSIGN_OR_RETURN(std::vector<TenantEvent> events,
                           DecodeEventLog(encoded_log));
  StreamingService service(MakeServiceOptions(config));
  SoakOutcome out;
  size_t cycles_seen = 0;
  uint64_t queries = 0;
  uint64_t violations = 0;
  for (TenantEvent& event : events) {
    if (event.type == EventType::kSlaReport) {
      queries += event.queries;
      violations += event.violations;
    }
    if (event.type == EventType::kGroupFailure) out.failed_group = event.group;
    THRIFTY_RETURN_NOT_OK(service.Ingest(std::move(event)));
    if (service.decisions().size() > cycles_seen) {
      THRIFTY_RETURN_NOT_OK(CheckExactlyOnce(
          service.current_plan(), service.RegisteredSpecs(),
          "replayed cycle " + std::to_string(cycles_seen)));
      ++cycles_seen;
      out.plans.push_back(service.current_plan());
      out.observed_violation_rates.push_back(
          queries > 0 ? static_cast<double>(violations) /
                            static_cast<double>(queries)
                      : 0.0);
      queries = 0;
      violations = 0;
    }
  }
  FillOutcomeTail(service, &out);
  return out;
}

Status CheckReplays(const SoakConfig& config, const SoakOutcome& live,
                    const std::vector<int>& solver_jobs,
                    std::vector<double>* replay_seconds) {
  for (int jobs : solver_jobs) {
    SoakConfig replay_config = config;
    replay_config.solver_jobs = jobs;
    const auto start = std::chrono::steady_clock::now();
    auto replay = ReplaySoak(replay_config, live.encoded_log);
    if (replay_seconds != nullptr) {
      replay_seconds->push_back(SecondsSince(start));
    }
    Status status = replay.ok() ? OutcomesMatch(live, *replay)
                                : replay.status();
    if (!status.ok()) {
      return Status(status.code(), "replay (solver-jobs=" +
                                       std::to_string(jobs) +
                                       "): " + status.message());
    }
  }
  return Status::OK();
}

}  // namespace soak
}  // namespace thrifty
