// Lightweight elastic scaling (§5.1).
//
// Thrifty's reactive approach: when a tenant-group's 24-hour RT-TTP drops
// below the SLA guarantee P, identify the over-active tenant(s) and start a
// *new* MPPDB loaded with only those tenants' data (loading scales with
// data volume — Table 5.1 — so loading one tenant is far cheaper than
// reloading the whole group). When the new MPPDB is ready, the Query Router
// sends the over-active tenants' queries there and the group's RT-TTP
// accounting excludes them. Scaled groups land on the re-consolidation list
// for the next consolidation cycle.

#ifndef THRIFTY_SCALING_ELASTIC_SCALER_H_
#define THRIFTY_SCALING_ELASTIC_SCALER_H_

#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "activity/activity_monitor.h"
#include "mppdb/cluster.h"
#include "routing/query_router.h"
#include "scaling/proactive.h"
#include "scaling/rt_ttp_monitor.h"
#include "workload/tenant.h"

namespace thrifty {

/// \brief When the scaler acts.
enum class ScalingPolicy {
  /// Act once RT-TTP has dropped below P (the paper's Thrifty).
  kReactive,
  /// Additionally act when a sustained RT-TTP decline is predicted to
  /// cross P within `proactive_lead` (§5.1's discussed alternative).
  kProactive,
};

/// \brief Elastic-scaling policy knobs.
struct ElasticScalerOptions {
  /// RT-TTP observation window (the paper's 24 hours).
  SimDuration window = 24 * kHour;
  /// How often RT-TTP is checked against P.
  SimDuration check_interval = 5 * kMinute;
  /// Epoch size used to build run-time activity vectors for over-active
  /// identification.
  SimDuration epoch_size = 10 * kSecond;
  /// Warm-up before the first check (a fresh 24h window reads artificially
  /// high because pre-history counts as inactive).
  SimDuration warmup = 24 * kHour;
  ScalingPolicy policy = ScalingPolicy::kReactive;
  /// Proactive mode: act when the predicted RT-TTP crosses P within this
  /// lead time (roughly the MPPDB preparation time it buys back).
  SimDuration proactive_lead = 4 * kHour;
  TrendPredictorOptions predictor;
};

/// \brief One completed or in-flight scaling action.
struct ScalingEvent {
  GroupId group_id = -1;
  /// When the RT-TTP breach was detected.
  SimTime detected_time = 0;
  /// How long over-active identification took (informational; the paper
  /// reports ~2 seconds).
  double identification_seconds = 0;
  /// When the new MPPDB came online (0 while still loading).
  SimTime ready_time = 0;
  /// The tenants moved to the new MPPDB.
  std::vector<TenantId> tenants;
  /// Nodes of the new MPPDB.
  int new_mppdb_nodes = 0;
  InstanceId new_instance_id = kInvalidInstanceId;
  /// True if triggered by trend prediction before an actual breach.
  bool proactive = false;
};

/// \brief Reactive scaler watching all tenant-groups.
class ElasticScaler {
 public:
  /// Fired when over-active tenants are moved out of a group (so the
  /// service can exclude them from the group's active-count bookkeeping).
  using ExclusionCallback =
      std::function<void(GroupId, const std::vector<TenantId>&, SimTime)>;

  ElasticScaler(SimEngine* engine, Cluster* cluster,
                TenantActivityTracker* tracker, int replication_factor,
                double sla_fraction,
                ElasticScalerOptions options = ElasticScalerOptions());

  /// \brief Registers a tenant-group to watch. `router` and `monitor` must
  /// outlive the scaler.
  void AddGroup(GroupId group_id, std::vector<TenantSpec> tenants,
                GroupRouter* router, RtTtpMonitor* monitor);

  void set_exclusion_callback(ExclusionCallback cb) {
    on_exclusion_ = std::move(cb);
  }

  /// \brief Starts the periodic RT-TTP checks.
  ///
  /// The check event reschedules itself indefinitely, so a simulation with
  /// a started scaler never quiesces: drive it with SimEngine::RunUntil,
  /// not Run.
  void Start();

  /// \brief Checks all groups once, immediately (also used by Start's
  /// periodic loop).
  void CheckNow(SimTime now);

  /// \brief All scaling actions taken so far.
  const std::vector<ScalingEvent>& events() const { return events_; }

  /// \brief Groups that scaled and should be re-consolidated next cycle.
  const std::unordered_set<GroupId>& reconsolidation_list() const {
    return reconsolidation_;
  }

 private:
  struct WatchedGroup {
    std::vector<TenantSpec> tenants;
    GroupRouter* router = nullptr;
    RtTtpMonitor* monitor = nullptr;
    RtTtpTrendPredictor predictor;
    bool scaling_in_flight = false;
    bool scaled = false;
  };

  void CheckGroup(GroupId group_id, WatchedGroup* group, SimTime now);

  SimEngine* engine_;
  Cluster* cluster_;
  TenantActivityTracker* tracker_;
  int replication_factor_;
  double sla_fraction_;
  ElasticScalerOptions options_;
  std::unordered_map<GroupId, WatchedGroup> groups_;
  std::vector<ScalingEvent> events_;
  std::unordered_set<GroupId> reconsolidation_;
  ExclusionCallback on_exclusion_;
  bool started_ = false;
};

}  // namespace thrifty

#endif  // THRIFTY_SCALING_ELASTIC_SCALER_H_
