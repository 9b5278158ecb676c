// stream_churn: a live StreamingService applying its plans to a simulated
// cluster through a DeploymentMaster.
//
// Setup registers the initial tenants (7-day §7.1 activity histories) and
// runs cycle 0, the cold consolidation. Each later cycle is one closed-loop
// step with a single caller: its events are generated after the previous
// Tick() returned — de-registrations, registrations of fresh tenants,
// activity drifts, one SLA report from the soak harness's feedback model
// and, every `churn_fail_every` cycles, a group failure — then ingested,
// then Tick() runs the cycle (controller, delta re-solve, plan delta applied
// to the cluster). Once per run, after the timed repetitions, the recorded
// event log is replayed through a fresh service without a cluster (the
// restart path), and the replay must reproduce every decision of the live
// run.

#include <unordered_set>

#include "service/streaming_service.h"
#include "sim/clock_source.h"
#include "workload_common.h"

namespace perfbench {
namespace {

using namespace thrifty;

constexpr int kReplication = 3;
constexpr SimDuration kCyclePeriod = kHour;
/// Feedback model of the soak harness: a group's violation rate is
/// amplification x (1 - TTP), capped at 1.
constexpr double kAmplification = 20.0;

std::vector<QueryLogEntry> EntriesFor(const IntervalSet& activity) {
  std::vector<QueryLogEntry> entries;
  entries.reserve(activity.size());
  for (const auto& interval : activity.intervals()) {
    entries.push_back({interval.begin, 0, interval.length(), -1});
  }
  return entries;
}

TenantEvent FeedbackReport(SimTime time, const DeploymentPlan& plan) {
  uint64_t queries = 0;
  uint64_t violations = 0;
  for (const GroupDeployment& group : plan.groups) {
    const uint64_t group_queries = 40 + 20 * group.tenants.size();
    double rate = kAmplification * (1.0 - group.ttp);
    rate = rate > 1.0 ? 1.0 : (rate < 0.0 ? 0.0 : rate);
    uint64_t group_violations = static_cast<uint64_t>(
        static_cast<double>(group_queries) * rate + 0.5);
    if (group_violations > group_queries) group_violations = group_queries;
    queries += group_queries;
    violations += group_violations;
  }
  return MakeSlaReportEvent(time, static_cast<uint32_t>(queries),
                            static_cast<uint32_t>(violations));
}

/// The most-populated group (ties to the lowest id), so the repair re-solve
/// has members to re-place.
GroupId PickFailureGroup(const DeploymentPlan& plan) {
  GroupId chosen = -1;
  size_t best = 0;
  for (const GroupDeployment& group : plan.groups) {
    if (group.tenants.size() > best ||
        (group.tenants.size() == best && group.group_id < chosen)) {
      best = group.tenants.size();
      chosen = group.group_id;
    }
  }
  return chosen;
}

const char* IngestSpanName(EventType type) {
  switch (type) {
    case EventType::kRegister:
      return "service.Ingest.register";
    case EventType::kDeregister:
      return "service.Ingest.deregister";
    case EventType::kActivityDrift:
      return "service.Ingest.drift";
    case EventType::kSlaReport:
      return "service.Ingest.sla_report";
    case EventType::kGroupFailure:
      return "service.Ingest.group_failure";
    case EventType::kCycleMark:
      break;
  }
  return "service.Ingest.cycle_mark";
}

class StreamChurn : public Workload {
 public:
  StreamChurn(uint64_t seed, const Scale& scale) : seed_(seed), scale_(scale) {}

  Repetition Run(Tracer* tracer, bool setup_only) override {
    Repetition rep;
    Span rep_span(tracer, "bench.repetition");
    QueryCatalog catalog = QueryCatalog::Default();
    const int initial = scale_.churn_initial_tenants;
    const int total =
        initial + scale_.churn_cycles * scale_.churn_per_cycle;

    // --- setup: population, service, initial registration, cycle 0 ------
    const Clock::time_point setup_start = Clock::now();
    Span setup_span(tracer, "bench.setup");
    Result<Population> made = Status::Internal("");
    {
      Span span(tracer, "workload.MakePopulation");
      made = MakePopulation(catalog, seed_, total, {2, 4, 8, 16, 32},
                               scale_.sessions_per_class);
    }
    rep.Count(made.status(), "population");
    if (!made.ok()) return rep;
    Population population = std::move(made).value();
    LogComposerOptions composer_options;
    composer_options.horizon_days = scale_.churn_horizon_days;
    LogComposer composer(population.library.get(), composer_options);
    Rng compose_rng = Rng(seed_).Fork(3);
    const Clock::time_point compose_start = Clock::now();
    Result<std::vector<IntervalSet>> composed = Status::Internal("");
    {
      Span span(tracer, "workload.ComposeActivity");
      composed = composer.ComposeActivity(&population.tenants, &compose_rng);
    }
    const double compose_s = SecondsSince(compose_start);
    rep.Count(composed.status(), "compose");
    if (!composed.ok()) return rep;
    const std::vector<TenantSpec>& tenants = population.tenants;
    std::vector<TenantLog> histories(tenants.size());
    for (size_t i = 0; i < tenants.size(); ++i) {
      histories[i].tenant_id = tenants[i].id;
      histories[i].entries = EntriesFor((*composed)[i]);
    }

    StreamingServiceOptions options = ServiceOptions();
    StreamingService service(options);
    VirtualClock clock;
    service.AttachClock(&clock);
    SimEngine engine;
    Cluster cluster(
        static_cast<int>(kReplication * TotalRequestedNodes(tenants)),
        &engine);
    QueryRouter router;
    DeploymentMaster master(&cluster, &router);
    service.AttachDeployment(&master);

    std::vector<size_t> registered;
    for (size_t i = 0; i < static_cast<size_t>(initial); ++i) {
      Span span(tracer, "service.Ingest.register");
      rep.Count(service.Ingest(MakeRegisterEvent(0, tenants[i],
                                                 histories[i].entries)),
                "initial register");
      registered.push_back(i);
    }
    clock.AdvanceTo(kCyclePeriod);
    {
      Span span(tracer, "service.Tick");
      CountTick(service.Tick(), &rep);
    }
    setup_span.End();
    rep.setup_s = SecondsSince(setup_start);
    if (setup_only) return rep;

    // --- timed cycles -----------------------------------------------------
    Rng churn_rng = Rng(seed_).Fork(4);
    size_t next_fresh = static_cast<size_t>(initial);
    uint64_t events = 0;
    std::vector<double> history_copy_ms;
    std::vector<double> nodes_in_use;
    double effectiveness_sum = 0;
    double sla_attainment_sum = 0;
    std::map<EventType, std::vector<double>> ingest_us;
    bool nodes_match = true;
    Span work_span(tracer, "bench.work");
    for (int c = 1; c <= scale_.churn_cycles; ++c) {
      // The cycle's events, generated after the previous Tick() returned.
      std::vector<TenantEvent> batch;
      SimTime t = static_cast<SimTime>(c) * kCyclePeriod + kSecond;
      for (int j = 0; j < scale_.churn_per_cycle; ++j) {
        const size_t pos = churn_rng.NextBounded(registered.size());
        batch.push_back(MakeDeregisterEvent(t, tenants[registered[pos]].id));
        registered[pos] = registered.back();
        registered.pop_back();
        t += kSecond;
      }
      for (int j = 0; j < scale_.churn_per_cycle; ++j) {
        const size_t index = next_fresh++;
        registered.push_back(index);
        batch.push_back(
            MakeRegisterEvent(t, tenants[index], histories[index].entries));
        t += kSecond;
      }
      std::unordered_set<size_t> drifted;
      while (drifted.size() <
             static_cast<size_t>(scale_.churn_drift_per_cycle)) {
        const size_t index =
            registered[churn_rng.NextBounded(registered.size())];
        if (!drifted.insert(index).second) continue;
        batch.push_back(MakeActivityDriftEvent(t, tenants[index].id, 2));
        t += kSecond;
      }
      batch.push_back(FeedbackReport(t, service.current_plan()));
      t += kSecond;
      if (c % scale_.churn_fail_every == 0) {
        const GroupId target = PickFailureGroup(service.current_plan());
        const std::vector<InstanceId> instances = service.InstancesOf(target);
        if (!instances.empty()) {
          Span span(tracer, "mppdb.InjectNodeFailure");
          rep.Count(cluster.InjectNodeFailure(instances[0],
                                              /*auto_replace=*/false),
                    "InjectNodeFailure");
        }
        if (target != -1) {
          batch.push_back(MakeGroupFailureEvent(t, target));
          t += kSecond;
        }
      }

      for (TenantEvent& event : batch) {
        const EventType type = event.type;
        const Clock::time_point start = Clock::now();
        {
          Span span(tracer, IngestSpanName(type));
          rep.Count(service.Ingest(std::move(event)), "Ingest");
        }
        const double seconds = SecondsSince(start);
        rep.work_s += seconds;
        if (tracer->enabled()) ingest_us[type].push_back(seconds * 1e6);
      }
      if (tracer->enabled()) {
        const Clock::time_point start = Clock::now();
        Span span(tracer, "service.CurrentHistory");
        const std::vector<TenantLog> copy = service.CurrentHistory();
        history_copy_ms.push_back(SecondsSince(start) * 1000.0);
      }
      clock.AdvanceTo(static_cast<SimTime>(c + 1) * kCyclePeriod);
      const Clock::time_point start = Clock::now();
      {
        Span span(tracer, "service.Tick");
        CountTick(service.Tick(), &rep);
      }
      const double seconds = SecondsSince(start);
      rep.work_s += seconds;
      rep.call_ms.push_back(seconds * 1000.0);
      events += batch.size() + 1;
      nodes_in_use.push_back(cluster.nodes_in_use());
      effectiveness_sum += service.current_plan().ConsolidationEffectiveness();
      sla_attainment_sum += PlanSlaAttainment(service.current_plan());
      nodes_match = nodes_match && cluster.nodes_in_use() ==
                                       service.current_plan().TotalNodesUsed();
    }
    work_span.End();
    rep.peak_rss_mb = PeakRssMb();
    rep.items = static_cast<double>(events);
    rep.Check(nodes_match, "cluster nodes in use equal the plan's nodes");

    // The live service's quality is its plans' average over the cycles.
    rep.effectiveness = effectiveness_sum / scale_.churn_cycles;
    rep.sla_attainment = sla_attainment_sum / scale_.churn_cycles;
    const Clock::time_point encode_start = Clock::now();
    {
      Span span(tracer, "service.EncodeLog");
      live_.encoded = service.EncodeLog();
    }
    live_.encode_s = SecondsSince(encode_start);
    live_.decisions = service.DecisionFingerprint();
    live_.controller = service.controller().TrajectoryFingerprint();
    live_.plans.clear();
    for (const CycleDecision& decision : service.decisions()) {
      live_.plans.push_back(decision.plan_fingerprint);
    }
    rep.fingerprint = "seed=" + std::to_string(seed_) +
                      " population=" + Hex(PopulationFingerprint(tenants)) +
                      " activity=" + Hex(LogFingerprint(histories)) +
                      " log=" + Hex(Fnv1a64(live_.encoded)) +
                      " decisions=" + Hex(live_.decisions) +
                      " controller=" + Hex(live_.controller);

    if (tracer->enabled()) {
      LayerMetrics(service, compose_s, history_copy_ms, nodes_in_use,
                   ingest_us, rep.call_ms, &rep);
    }
    return rep;
  }

  /// The restart path: StreamingService::Replay of the last repetition's
  /// event log, without a cluster, must reproduce the live run's decisions.
  void FinalChecks(Tracer* tracer, Repetition* rep) override {
    const Clock::time_point decode_start = Clock::now();
    {
      Span span(tracer, "service.DecodeEventLog");
      rep->Count(DecodeEventLog(live_.encoded).status(), "DecodeEventLog");
    }
    const double decode_s = SecondsSince(decode_start);
    const Clock::time_point replay_start = Clock::now();
    Result<StreamingService> replay = Status::Internal("");
    {
      Span span(tracer, "service.Replay");
      replay = StreamingService::Replay(live_.encoded, ServiceOptions());
    }
    const double replay_s = SecondsSince(replay_start);
    rep->Count(replay.status(), "Replay");
    if (!replay.ok()) return;
    rep->Check(replay->EncodeLog() == live_.encoded,
               "replay re-encodes the identical event log");
    rep->Check(replay->DecisionFingerprint() == live_.decisions,
               "replay DecisionFingerprint");
    rep->Check(replay->controller().TrajectoryFingerprint() == live_.controller,
               "replay controller TrajectoryFingerprint");
    bool plans_match = replay->decisions().size() == live_.plans.size();
    for (size_t i = 0; plans_match && i < live_.plans.size(); ++i) {
      plans_match = replay->decisions()[i].plan_fingerprint == live_.plans[i];
    }
    rep->Check(plans_match, "replay per-cycle plan fingerprints");
    rep->layer = {
        {"service.encode_s", live_.encode_s, "s"},
        {"service.decode_s", decode_s, "s"},
        {"service.event_log_mb",
         static_cast<double>(live_.encoded.size()) / (1024.0 * 1024.0), "MB"},
        {"service.replay_s", replay_s, "s"},
    };
  }

 private:
  StreamingServiceOptions ServiceOptions() const {
    StreamingServiceOptions options;
    options.reconsolidation.advisor.replication_factor = kReplication;
    options.reconsolidation.advisor.sla_fraction =
        options.controller.initial_sla_fraction;
    options.reconsolidation.advisor.solver_jobs = 1;
    options.reconsolidation.activity_delta_threshold = 0.003;
    options.history_begin = 0;
    options.history_end =
        static_cast<SimTime>(scale_.churn_horizon_days) * kDay;
    options.cycle_period = kCyclePeriod;
    return options;
  }

  static void CountTick(const Result<bool>& ran, Repetition* rep) {
    rep->Count(ran.status(), "Tick");
    if (ran.ok()) rep->Check(*ran, "Tick ran a cycle");
  }

  static void LayerMetrics(
      const StreamingService& service, double compose_s,
      const std::vector<double>& history_copy_ms,
      const std::vector<double>& nodes_in_use,
      const std::map<EventType, std::vector<double>>& ingest_us,
      const std::vector<double>& tick_ms, Repetition* rep) {
    std::vector<double> solve_ms;
    std::vector<double> overhead_ms;
    std::vector<double> rest_ms;
    double resolve_share = 0;
    size_t created = 0;
    size_t dissolved = 0;
    const std::vector<CycleDecision>& decisions = service.decisions();
    for (size_t c = 1; c < decisions.size(); ++c) {
      const CycleDecision& decision = decisions[c];
      const double tick = tick_ms[c - 1];
      solve_ms.push_back(decision.solve_wall_ms);
      overhead_ms.push_back(tick - decision.solve_wall_ms);
      rest_ms.push_back(tick - decision.solve_wall_ms - history_copy_ms[c - 1]);
      const size_t touched = decision.resolved_groups.size() +
                             decision.untouched_groups.size();
      if (touched > 0) {
        resolve_share += static_cast<double>(decision.resolved_groups.size()) /
                         static_cast<double>(touched);
      }
      created += decision.created_groups.size();
      dissolved += decision.dissolved_groups.size();
    }
    const double cycles = static_cast<double>(solve_ms.size());
    auto mean = [](const std::vector<double>& values) {
      double sum = 0;
      for (double v : values) sum += v;
      return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
    };
    auto ingest = [&](EventType type) {
      auto it = ingest_us.find(type);
      return it == ingest_us.end() ? 0.0 : mean(it->second);
    };
    rep->layer = {
        {"workload.compose_s", compose_s, "s"},
        {"core.delta_solve_ms_p50", Percentile(solve_ms, 0.5), "ms"},
        {"core.delta_solve_ms_p95", Percentile(solve_ms, 0.95), "ms"},
        {"core.resolve_share", resolve_share / cycles, "fraction"},
        {"core.groups_created", static_cast<double>(created), "count"},
        {"core.groups_dissolved", static_cast<double>(dissolved), "count"},
        {"service.cycles", cycles, "count"},
        {"service.cycle_ms_mean", mean(tick_ms), "ms"},
        {"core.delta_solve_ms_mean", mean(solve_ms), "ms"},
        {"service.cycle_history_copy_ms_mean", mean(history_copy_ms), "ms"},
        {"service.cycle_rest_ms_mean", mean(rest_ms), "ms"},
        {"service.cycle_overhead_ms_p50", Percentile(overhead_ms, 0.5), "ms"},
        {"service.ingest_us_register", ingest(EventType::kRegister), "us"},
        {"service.ingest_us_deregister", ingest(EventType::kDeregister),
         "us"},
        {"service.ingest_us_drift", ingest(EventType::kActivityDrift), "us"},
        {"service.ingest_us_sla_report", ingest(EventType::kSlaReport), "us"},
        {"mppdb.nodes_in_use", mean(nodes_in_use), "count"},
    };
  }

  uint64_t seed_;
  Scale scale_;
  /// What the replay must reproduce, from the last repetition.
  struct LiveRecord {
    std::string encoded;
    double encode_s = 0;
    uint64_t decisions = 0;
    uint64_t controller = 0;
    std::vector<uint64_t> plans;
  };
  LiveRecord live_;
};

}  // namespace

std::unique_ptr<Workload> MakeStreamChurn(uint64_t seed, const Scale& scale) {
  return std::make_unique<StreamChurn>(seed, scale);
}

}  // namespace perfbench
