// serve_replay: ThriftyService serving a week of §7.1 query logs.
//
// Setup composes query logs for tenants on 2/4/8-node classes, advises a
// plan at R=3 and P=0.99, and deploys it with elastic scaling on. The
// timed work replays the logs open loop in simulated time: the benchmark
// keeps one pending arrival per tenant (the lazy pattern ScheduleLogReplay
// uses) and submits each query through ThriftyService::SubmitQuery at its
// logged time, whether or not earlier queries finished, so it can count
// every submit error. Two node failures hit the two largest groups
// mid-replay. The simulator advances in steps of a fixed number of query
// arrivals, one timed call each; after the logs end, a drain lets every
// query finish, and every submitted query must have completed.

#include <algorithm>

#include "workload_common.h"

namespace perfbench {
namespace {

using namespace thrifty;

constexpr int kReplication = 3;
constexpr double kSlaFraction = 0.99;
constexpr SimDuration kDrain = 12 * kHour;

class ServeReplay : public Workload {
 public:
  ServeReplay(uint64_t seed, const Scale& scale) : seed_(seed), scale_(scale) {}

  Repetition Run(Tracer* tracer, bool setup_only) override {
    Repetition rep;
    Span rep_span(tracer, "bench.repetition");
    QueryCatalog catalog = QueryCatalog::Default();
    const SimTime horizon =
        static_cast<SimTime>(scale_.serve_horizon_days) * kDay;

    // --- setup: query logs, advised plan, deployed service ---------------
    const Clock::time_point setup_start = Clock::now();
    Span setup_span(tracer, "bench.setup");
    Result<Population> made = Status::Internal("");
    {
      Span span(tracer, "workload.MakePopulation");
      made = MakePopulation(catalog, seed_, scale_.serve_tenants,
                               {2, 4, 8}, scale_.sessions_per_class);
    }
    rep.Count(made.status(), "population");
    if (!made.ok()) return rep;
    Population population = std::move(made).value();
    LogComposerOptions composer_options;
    composer_options.horizon_days = scale_.serve_horizon_days;
    LogComposer composer(population.library.get(), composer_options);
    Rng compose_rng = Rng(seed_).Fork(3);
    const Clock::time_point compose_start = Clock::now();
    Result<std::vector<TenantLog>> composed = Status::Internal("");
    {
      Span span(tracer, "workload.Compose");
      composed = composer.Compose(&population.tenants, &compose_rng);
    }
    const double compose_s = SecondsSince(compose_start);
    rep.Count(composed.status(), "compose");
    if (!composed.ok()) return rep;
    std::vector<TenantLog> logs = std::move(composed).value();
    for (TenantLog& log : logs) log.SortEntries();

    AdvisorOptions advisor_options;
    advisor_options.replication_factor = kReplication;
    advisor_options.sla_fraction = kSlaFraction;
    const Clock::time_point advise_start = Clock::now();
    Result<AdvisorOutput> advised = Status::Internal("");
    {
      Span span(tracer, "core.Advise");
      advised = DeploymentAdvisor(advisor_options)
                    .Advise(population.tenants, logs, 0, horizon);
    }
    const double advise_s = SecondsSince(advise_start);
    rep.Count(advised.status(), "Advise");
    if (!advised.ok()) return rep;
    const DeploymentPlan& plan = advised->plan;

    SimEngine engine;
    SimCostGauge gauge;
    if (tracer->enabled()) engine.set_cost_gauge(&gauge);
    Cluster cluster(static_cast<int>(plan.TotalNodesUsed() +
                                     TotalRequestedNodes(population.tenants)),
                    &engine);
    ServiceOptions service_options;
    service_options.replication_factor = kReplication;
    service_options.sla_fraction = kSlaFraction;
    service_options.elastic_scaling = true;
    ThriftyService service(&engine, &cluster, &catalog, service_options);
    {
      Span span(tracer, "core.Deploy");
      rep.Count(service.Deploy(plan), "Deploy");
    }
    setup_span.End();
    rep.setup_s = SecondsSince(setup_start);
    if (setup_only) return rep;

    // --- timed work: open-loop replay, node failures, drain --------------
    std::vector<const TenantLog*> replayed;
    for (const TenantLog& log : logs) {
      if (service.TenantInfo(log.tenant_id).ok()) replayed.push_back(&log);
    }
    uint64_t submitted = 0;
    uint64_t completed = 0;
    uint64_t stream_fp = kFnv1a64Offset;
    service.set_completion_hook([&](const QueryOutcome& outcome) {
      ++completed;
      stream_fp = FoldValue(stream_fp, outcome.real.query_id);
      stream_fp = FoldValue(stream_fp, outcome.real.instance_id);
      stream_fp = FoldValue(stream_fp, outcome.real.finish_time);
      stream_fp = FoldValue(stream_fp, outcome.isolated_latency);
    });
    // One pending arrival per tenant: each arrival submits its query and
    // schedules the tenant's next one.
    std::function<void(size_t, size_t)> schedule = [&](size_t log_index,
                                                       size_t entry) {
      const TenantLog& log = *replayed[log_index];
      if (entry >= log.entries.size()) return;
      engine.ScheduleAt(log.entries[entry].submit_time, [&, log_index,
                                                          entry](SimTime) {
        const TenantLog& l = *replayed[log_index];
        ++submitted;
        {
          TalliedCall call(tracer, "core.SubmitQuery");
          rep.Count(service.SubmitQuery(l.tenant_id,
                                        l.entries[entry].template_id)
                        .status(),
                    "SubmitQuery");
        }
        schedule(log_index, entry + 1);
      });
    };
    const std::vector<InstanceId> targets = FailureTargets(plan, &service);
    for (size_t i = 0; i < targets.size(); ++i) {
      const InstanceId instance = targets[i];
      engine.ScheduleAt(horizon * static_cast<SimTime>(i + 1) / 3,
                        [&, instance](SimTime) {
                          Span span(tracer, "mppdb.InjectNodeFailure");
                          rep.Count(cluster.InjectNodeFailure(instance),
                                    "InjectNodeFailure");
                        });
    }

    // The simulator advances in steps of serve_step_queries arrivals, so
    // every timed step serves about the same traffic whatever the hour.
    std::vector<SimTime> arrivals;
    for (const TenantLog* log : replayed) {
      for (const QueryLogEntry& entry : log->entries) {
        arrivals.push_back(entry.submit_time);
      }
    }
    std::sort(arrivals.begin(), arrivals.end());
    std::vector<SimTime> steps;
    for (size_t i = scale_.serve_step_queries; i <= arrivals.size();
         i += scale_.serve_step_queries) {
      steps.push_back(arrivals[i - 1]);
    }

    const Clock::time_point work_start = Clock::now();
    Span work_span(tracer, "bench.work");
    for (size_t i = 0; i < replayed.size(); ++i) schedule(i, 0);
    for (SimTime until : steps) {
      const Clock::time_point start = Clock::now();
      {
        Span span(tracer, "sim.RunUntil");
        engine.RunUntil(until);
      }
      rep.call_ms.push_back(SecondsSince(start) * 1000.0);
    }
    {
      // The tail of the log, then the drain.
      Span span(tracer, "sim.RunUntil");
      engine.RunUntil(horizon + kDrain);
    }
    work_span.End();
    rep.work_s = SecondsSince(work_start);
    rep.peak_rss_mb = PeakRssMb();
    rep.items = static_cast<double>(completed);

    // --- output checks ----------------------------------------------------
    rep.Check(completed == submitted,
              "every submitted query completed after the drain (" +
                  std::to_string(completed) + " of " +
                  std::to_string(submitted) + ")");
    rep.Check(submitted > 0, "queries were submitted");
    const ServiceMetrics& metrics = service.metrics();
    rep.Check(metrics.completed == completed,
              "service metrics count every completion");
    rep.effectiveness = plan.ConsolidationEffectiveness();
    rep.sla_attainment = metrics.SlaAttainment();
    const double norm_perf_p99 =
        metrics.normalized_performance.Percentile(0.99);

    rep.fingerprint = "seed=" + std::to_string(seed_) +
                      " population=" +
                      Hex(PopulationFingerprint(population.tenants)) +
                      " log=" + Hex(LogFingerprint(logs)) +
                      " plan=" + Hex(PlanFingerprint(plan)) +
                      " completions=" + Hex(stream_fp) +
                      " norm_perf_p99=" + std::to_string(norm_perf_p99);

    if (tracer->enabled()) {
      const std::vector<double> submit_us =
          tracer->TalliedMicros("core.SubmitQuery", tracer->run_id());
      double submit_total = 0;
      for (double us : submit_us) submit_total += us * 1e-6;
      const double run_until_s =
          tracer->TotalSeconds("sim.RunUntil", tracer->run_id());

      int64_t routes[5] = {0, 0, 0, 0, 0};
      for (const GroupDeployment& group : plan.groups) {
        auto router = service.router()->RouterForGroup(group.group_id);
        if (!router.ok()) continue;
        for (const auto& [kind, count] : (*router)->counters()) {
          routes[static_cast<int>(kind)] += count;
        }
      }
      int64_t route_total = 0;
      for (int64_t count : routes) route_total += count;
      double identification_s = 0;
      size_t actions = 0;
      if (service.scaler() != nullptr) {
        actions = service.scaler()->events().size();
        for (const ScalingEvent& event : service.scaler()->events()) {
          identification_s += event.identification_seconds;
        }
      }
      const double events = static_cast<double>(engine.events_processed());
      rep.layer = {
          {"workload.compose_s", compose_s, "s"},
          {"core.advise_s", advise_s, "s"},
          {"core.submit_us_p50", Percentile(submit_us, 0.5), "us"},
          {"core.submit_us_p99", Percentile(submit_us, 0.99), "us"},
          {"core.norm_perf_p99", norm_perf_p99, "ratio"},
          {"sim.events", events, "count"},
          {"sim.events_per_s", events / rep.work_s, "1/s"},
          {"sim.other_s", run_until_s - submit_total, "s"},
          {"mppdb.submits", static_cast<double>(gauge.submits()), "count"},
          {"mppdb.completion_events",
           static_cast<double>(gauge.completion_events()), "count"},
          {"mppdb.touched_per_event", gauge.TouchedPerEvent(), "ratio"},
          {"mppdb.peak_running_set",
           static_cast<double>(gauge.peak_running_set()), "count"},
          {"routing.route_tenant_affinity",
           static_cast<double>(routes[0]), "count"},
          {"routing.route_tuning_free", static_cast<double>(routes[1]),
           "count"},
          {"routing.route_other_free", static_cast<double>(routes[2]),
           "count"},
          {"routing.route_overflow", static_cast<double>(routes[3]), "count"},
          {"routing.route_dedicated", static_cast<double>(routes[4]),
           "count"},
          {"routing.overflow_share",
           route_total == 0 ? 0.0
                            : static_cast<double>(routes[3]) /
                                  static_cast<double>(route_total),
           "fraction"},
          {"scaling.actions", static_cast<double>(actions), "count"},
          {"scaling.identification_s", identification_s, "s"},
      };
    }
    return rep;
  }

 private:
  /// The first MPPDB of the two largest groups (ties in plan order).
  static std::vector<InstanceId> FailureTargets(const DeploymentPlan& plan,
                                                ThriftyService* service) {
    std::vector<const GroupDeployment*> groups;
    for (const GroupDeployment& group : plan.groups) groups.push_back(&group);
    std::stable_sort(groups.begin(), groups.end(),
                     [](const GroupDeployment* a, const GroupDeployment* b) {
                       return a->tenants.size() > b->tenants.size();
                     });
    std::vector<InstanceId> targets;
    for (size_t i = 0; i < groups.size() && targets.size() < 2; ++i) {
      auto router = service->router()->RouterForGroup(groups[i]->group_id);
      if (router.ok() && !(*router)->mppdbs().empty()) {
        targets.push_back((*router)->mppdbs()[0]->id());
      }
    }
    return targets;
  }

  uint64_t seed_;
  Scale scale_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeReplay(uint64_t seed, const Scale& scale) {
  return std::make_unique<ServeReplay>(seed, scale);
}

}  // namespace perfbench
