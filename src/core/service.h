// ThriftyService: the running MPPDBaaS (Fig 3.1, all components wired).
//
// Deploys a plan onto a cluster, accepts tenant queries, routes them with
// Algorithm 1, feeds query lifecycle events into the Tenant Activity
// Monitor, watches per-group RT-TTP, and (optionally) reacts with
// lightweight elastic scaling.
//
// SLA accounting follows the paper's Fig 7.7 definition: a query's
// normalized performance is its measured latency divided by the latency it
// would have had "when measured in an isolated environment" — the tenant
// alone on a dedicated MPPDB of exactly its requested node count, *with the
// tenant's own concurrency included* (a batch of M queries processor-shares
// the dedicated instance too; that slowdown is the tenant's own node-choice,
// §4.4). The service computes this counterfactual exactly by mirroring every
// submission onto a per-tenant shadow instance of the requested size.

#ifndef THRIFTY_CORE_SERVICE_H_
#define THRIFTY_CORE_SERVICE_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "core/deployment_master.h"
#include "core/tenant_activity_monitor.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "routing/query_router.h"
#include "scaling/elastic_scaler.h"
#include "workload/query_log.h"

namespace thrifty {

/// \brief Service configuration.
struct ServiceOptions {
  /// Replication factor R (must match the deployed plan).
  int replication_factor = 3;
  /// Performance SLA guarantee P.
  double sla_fraction = 0.999;
  /// Enable §5.1 lightweight elastic scaling.
  bool elastic_scaling = true;
  ElasticScalerOptions scaling;
};

/// \brief Outcome of one query: real execution + isolated counterfactual.
struct QueryOutcome {
  QueryCompletion real;
  /// Latency of the same submission on the tenant's dedicated shadow
  /// instance (isolated environment).
  SimDuration isolated_latency = 0;

  /// \brief Measured / isolated; 1.0 = "as quick as it should be".
  double NormalizedPerformance() const {
    return isolated_latency <= 0
               ? 0
               : static_cast<double>(real.MeasuredLatency()) /
                     static_cast<double>(isolated_latency);
  }
};

/// \brief Aggregated SLA statistics.
struct ServiceMetrics {
  size_t completed = 0;
  size_t sla_met = 0;
  /// Replayed queries whose submission failed (e.g. no MPPDB of the
  /// tenant's group was online); the replay skips them and goes on.
  size_t failed_submits = 0;
  /// Distribution of normalized performance (1.0 = dedicated speed).
  Histogram normalized_performance{0.01, 1.02};

  double SlaAttainment() const {
    return completed == 0 ? 1.0
                          : static_cast<double>(sla_met) /
                                static_cast<double>(completed);
  }
};

/// \brief The full consolidated MPPDB service.
class ThriftyService {
 public:
  using CompletionHook = std::function<void(const QueryOutcome&)>;

  /// \brief All pointers must outlive the service.
  ThriftyService(SimEngine* engine, Cluster* cluster,
                 const QueryCatalog* catalog,
                 ServiceOptions options = ServiceOptions());

  /// \brief Deploys a plan: starts MPPDBs, places tenants, registers
  /// routing and monitoring, and (if enabled) starts the elastic scaler.
  ///
  /// With elastic scaling enabled the scaler's periodic check keeps the
  /// event queue non-empty forever; drive the simulation with
  /// SimEngine::RunUntil rather than Run.
  Status Deploy(const DeploymentPlan& plan);

  /// \brief Accepts one query from a tenant at the current simulated time.
  ///
  /// Routes per Algorithm 1 and begins execution immediately.
  Result<InstanceId> SubmitQuery(TenantId tenant, TemplateId template_id);

  /// \brief Replays tenant logs through the service: each log entry's query
  /// is submitted at its logged time (entries before now are skipped). A
  /// submission that fails is counted in ServiceMetrics::failed_submits
  /// and the replay continues with the tenant's next entry.
  ///
  /// Replay is scheduled lazily (one pending event per tenant), so large
  /// logs do not bloat the event queue.
  Status ScheduleLogReplay(std::vector<TenantLog> logs);

  /// \brief Fired once per query when both the real execution and the
  /// isolated counterfactual have finished (after metrics are updated).
  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }

  TenantActivityMonitor* activity_monitor() { return &monitor_; }
  QueryRouter* router() { return &router_; }
  ElasticScaler* scaler() { return scaler_.get(); }
  const ServiceMetrics& metrics() const { return metrics_; }
  const ServiceOptions& options() const { return options_; }

  /// \brief The deployed tenant specs (by id).
  Result<const TenantSpec*> TenantInfo(TenantId tenant) const;

  /// \brief The plan this service was deployed with (valid after Deploy).
  const DeploymentPlan& plan() const { return plan_; }

  SimEngine* engine() { return engine_; }
  Cluster* cluster() { return cluster_; }

 private:
  void OnRealCompletion(const QueryCompletion& completion);
  void OnShadowCompletion(const QueryCompletion& completion);
  void FinalizeOutcome(QueryId query_id);
  void ReplayNext(size_t log_index, size_t entry_index);

  SimEngine* engine_;
  Cluster* cluster_;
  const QueryCatalog* catalog_;
  ServiceOptions options_;
  QueryRouter router_;
  TenantActivityMonitor monitor_;
  std::unique_ptr<ElasticScaler> scaler_;
  DeploymentPlan plan_;
  std::unordered_map<TenantId, TenantSpec> tenants_;
  /// Per-tenant dedicated counterfactual executors (no cluster resources).
  std::unordered_map<TenantId, std::unique_ptr<MppdbInstance>> shadows_;
  struct PendingOutcome {
    QueryCompletion real;
    SimDuration isolated_latency = 0;
    bool real_done = false;
    bool shadow_done = false;
  };
  std::unordered_map<QueryId, PendingOutcome> pending_;
  std::vector<TenantLog> replay_logs_;
  ServiceMetrics metrics_;
  CompletionHook completion_hook_;
  QueryId next_query_id_ = 0;
  InstanceId next_shadow_id_ = 1'000'000;  // distinct from cluster ids
  bool deployed_ = false;
};

}  // namespace thrifty

#endif  // THRIFTY_CORE_SERVICE_H_
