// Physical cluster: the shared node pool MPPDB instances are carved from.
//
// The Deployment Master (core/deployment_master.h) uses this to start the
// MPPDBs of a deployment plan, hibernate unused nodes, provision new MPPDBs
// for elastic scaling, and replace failed nodes.

#ifndef THRIFTY_MPPDB_CLUSTER_H_
#define THRIFTY_MPPDB_CLUSTER_H_

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "mppdb/instance.h"
#include "mppdb/provisioning.h"
#include "sim/engine.h"

namespace thrifty {

/// \brief Tenant data to be bulk loaded onto a new instance.
struct TenantDataSpec {
  TenantId tenant_id = kInvalidTenantId;
  double data_gb = 0;
};

/// \brief Pool of identical machine nodes plus the MPPDB instances running
/// on them.
///
/// Thrifty assumes all nodes are identical in configuration (Chapter 3);
/// the pool is therefore just a counted resource. Nodes not allocated to any
/// instance are hibernated (switched off).
class Cluster {
 public:
  /// \param total_nodes size of the shared hardware pool.
  Cluster(int total_nodes, SimEngine* engine,
          ProvisioningModel provisioning = ProvisioningModel());

  int total_nodes() const { return total_nodes_; }
  int nodes_in_use() const { return nodes_in_use_; }
  int nodes_hibernated() const { return total_nodes_ - nodes_in_use_; }

  const ProvisioningModel& provisioning() const { return provisioning_; }

  /// \brief Completion callback installed on every instance this cluster
  /// creates from now on (the service's metrics/activity plumbing).
  void set_default_completion_callback(MppdbInstance::CompletionCallback cb) {
    default_completion_ = std::move(cb);
  }

  /// \brief Allocates `nodes` nodes and creates an already-online instance.
  ///
  /// Used for the initial deployment, which completes before the service
  /// opens (the deployment "is supposed to be static for days", Chapter 3).
  Result<MppdbInstance*> CreateInstanceOnline(int nodes);

  /// \brief Allocates nodes and provisions an instance asynchronously:
  /// node start + MPPDB init, then bulk loading of `tenant_data`, then
  /// online. `on_ready` fires when the instance becomes online.
  ///
  /// This is the elastic-scaling path; per Table 5.1 it takes hours of
  /// simulated time.
  Result<MppdbInstance*> CreateInstanceAsync(
      int nodes, std::vector<TenantDataSpec> tenant_data,
      std::function<void(MppdbInstance*)> on_ready);

  /// \brief Stops an instance and returns its nodes to the hibernated pool.
  ///
  /// Fails if the instance is currently executing queries.
  Status DecommissionInstance(InstanceId id);

  /// \brief Looks up a live instance; fails after decommissioning.
  Result<MppdbInstance*> GetInstance(InstanceId id);

  /// \brief All live instances (stopped ones excluded).
  std::vector<MppdbInstance*> LiveInstances();

  /// \brief Fails one node of the given instance. The instance keeps serving
  /// at reduced rate; if `auto_replace`, a replacement node is started
  /// (taking ProvisioningModel::NodeStartTime(1)) and repairs the instance
  /// when it comes up — the §4.4 failure-handling flow.
  Status InjectNodeFailure(InstanceId id, bool auto_replace = true);

  /// \brief Number of node failures injected so far.
  int failures_injected() const { return failures_injected_; }

 private:
  int total_nodes_;
  int nodes_in_use_ = 0;
  SimEngine* engine_;
  ProvisioningModel provisioning_;
  std::vector<std::unique_ptr<MppdbInstance>> instances_;
  MppdbInstance::CompletionCallback default_completion_;
  InstanceId next_instance_id_ = 0;
  int failures_injected_ = 0;
};

}  // namespace thrifty

#endif  // THRIFTY_MPPDB_CLUSTER_H_
