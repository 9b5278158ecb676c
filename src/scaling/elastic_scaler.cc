#include "scaling/elastic_scaler.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "activity/streamed_epochizer.h"
#include "common/stopwatch.h"
#include "scaling/overactive.h"

namespace thrifty {

ElasticScaler::ElasticScaler(SimEngine* engine, Cluster* cluster,
                             TenantActivityTracker* tracker,
                             int replication_factor, double sla_fraction,
                             ElasticScalerOptions options)
    : engine_(engine),
      cluster_(cluster),
      tracker_(tracker),
      replication_factor_(replication_factor),
      sla_fraction_(sla_fraction),
      options_(options) {
  assert(engine != nullptr && cluster != nullptr && tracker != nullptr);
}

void ElasticScaler::AddGroup(GroupId group_id, std::vector<TenantSpec> tenants,
                             GroupRouter* router, RtTtpMonitor* monitor) {
  WatchedGroup group;
  group.tenants = std::move(tenants);
  group.router = router;
  group.monitor = monitor;
  group.predictor = RtTtpTrendPredictor(options_.predictor);
  groups_.emplace(group_id, std::move(group));
}

void ElasticScaler::Start() {
  if (started_) return;
  started_ = true;
  // Self-rescheduling periodic check, first fired after the warm-up.
  struct Ticker {
    ElasticScaler* scaler;
    void operator()(SimTime now) {
      scaler->CheckNow(now);
      scaler->engine_->ScheduleAfter(scaler->options_.check_interval,
                                     Ticker{scaler});
    }
  };
  engine_->ScheduleAfter(options_.warmup, Ticker{this});
}

void ElasticScaler::CheckNow(SimTime now) {
  for (auto& [group_id, group] : groups_) {
    CheckGroup(group_id, &group, now);
  }
}

void ElasticScaler::CheckGroup(GroupId group_id, WatchedGroup* group,
                               SimTime now) {
  // At most one scaling action per group until re-consolidation.
  if (group->scaling_in_flight || group->scaled) return;
  double rt_ttp = group->monitor->RtTtp(now);
  group->predictor.AddSample(now, rt_ttp);
  bool breached = rt_ttp + 1e-12 < sla_fraction_;
  bool predicted = false;
  if (!breached && options_.policy == ScalingPolicy::kProactive) {
    predicted = group->predictor
                    .PredictsBreach(sla_fraction_, options_.proactive_lead,
                                    now)
                    .value_or(false);
  }
  if (!breached && !predicted) return;

  // RT-TTP breached: identify the over-active tenants from the last
  // window's run-time activity.
  auto wall_start = std::chrono::steady_clock::now();
  EpochConfig epochs;
  epochs.epoch_size = options_.epoch_size;
  epochs.begin = std::max<SimTime>(0, now - options_.window);
  epochs.end = now;
  if (!epochs.Valid()) return;

  std::vector<ActivityVector> recent;
  recent.reserve(group->tenants.size());
  for (const auto& spec : group->tenants) {
    if (group->router->HasDedicated(spec.id)) continue;  // already moved out
    IntervalSet history =
        tracker_->ActivityHistory(spec.id, epochs.begin, epochs.end);
    recent.push_back(EpochizeIntervals(spec.id, history, epochs));
  }
  if (recent.size() <= 1) return;  // nothing sensible to split off

  auto overactive_result = IdentifyOveractiveTenants(
      recent, replication_factor_, sla_fraction_);
  if (!overactive_result.ok()) return;
  std::vector<TenantId> victims = std::move(overactive_result).value();
  if (victims.empty()) {
    // Regrouping absorbs everyone, yet RT-TTP is below P (greedy/window
    // mismatch): fall back to moving the most active tenant.
    auto most_active = MostActiveTenant(recent);
    if (!most_active.ok()) return;
    victims.push_back(*most_active);
  }
  double identification_seconds = SecondsSince(wall_start);

  // Size the new MPPDB for the largest victim and load only victim data.
  int nodes = 0;
  std::vector<TenantDataSpec> data;
  for (TenantId victim : victims) {
    for (const auto& spec : group->tenants) {
      if (spec.id == victim) {
        nodes = std::max(nodes, spec.requested_nodes);
        data.push_back({victim, spec.data_gb});
        break;
      }
    }
  }
  if (nodes == 0) return;

  ScalingEvent event;
  event.group_id = group_id;
  event.detected_time = now;
  event.identification_seconds = identification_seconds;
  event.tenants = victims;
  event.new_mppdb_nodes = nodes;
  event.proactive = !breached;
  size_t event_index = events_.size();

  group->scaling_in_flight = true;
  auto created = cluster_->CreateInstanceAsync(
      nodes, std::move(data),
      [this, group_id, victims, event_index](MppdbInstance* instance) {
        auto it = groups_.find(group_id);
        if (it == groups_.end()) return;
        WatchedGroup& g = it->second;
        for (TenantId victim : victims) {
          g.router->AssignDedicated(victim, instance);
        }
        g.scaling_in_flight = false;
        g.scaled = true;
        events_[event_index].ready_time = engine_->now();
        events_[event_index].new_instance_id = instance->id();
        reconsolidation_.insert(group_id);
        if (on_exclusion_) {
          on_exclusion_(group_id, victims, engine_->now());
        }
      });
  if (!created.ok()) {
    // Pool exhausted: give up this round; the next check retries.
    group->scaling_in_flight = false;
    return;
  }
  events_.push_back(std::move(event));
}

}  // namespace thrifty
