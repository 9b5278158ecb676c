// The Deployment Master (Fig 3.1 component (c)).
//
// Follows the deployment plan: starts one MPPDB per (group, replica),
// deploys every group member's data on each of the group's MPPDBs
// (tenant placement = full replication within the group, Property 1),
// registers the groups with the Query Router, and leaves unused nodes
// hibernated in the cluster pool.

#ifndef THRIFTY_CORE_DEPLOYMENT_MASTER_H_
#define THRIFTY_CORE_DEPLOYMENT_MASTER_H_

#include <vector>

#include "common/result.h"
#include "mppdb/cluster.h"
#include "placement/deployment_plan.h"
#include "routing/query_router.h"

namespace thrifty {

/// \brief Instances deployed for one tenant-group (index 0 = MPPDB_0).
struct DeployedGroup {
  GroupId group_id = -1;
  std::vector<MppdbInstance*> instances;
};

/// \brief Applies deployment plans to a cluster.
class DeploymentMaster {
 public:
  DeploymentMaster(Cluster* cluster, QueryRouter* router);

  /// \brief Starts all MPPDBs of the plan (synchronously online — the
  /// initial deployment completes before the service opens) and registers
  /// routing. Fails without side-effect rollback if the pool is too small,
  /// so size the cluster from DeploymentPlan::TotalNodesUsed() first.
  Result<std::vector<DeployedGroup>> Deploy(const DeploymentPlan& plan);

  /// \brief Deploys a single tenant-group: one instance per cluster-design
  /// MPPDB, every member's data on each, routing registered. The unit the
  /// streaming service applies re-consolidation deltas with.
  Result<DeployedGroup> DeployGroup(const GroupDeployment& group);

  /// \brief Tears a group down: unregisters routing and decommissions the
  /// given instances (they must be idle). The inverse of DeployGroup for
  /// groups a re-consolidation cycle dissolved.
  Status UndeployGroup(GroupId group_id,
                       const std::vector<InstanceId>& instances);

 private:
  Cluster* cluster_;
  QueryRouter* router_;
};

}  // namespace thrifty

#endif  // THRIFTY_CORE_DEPLOYMENT_MASTER_H_
