// The Deployment Advisor (Fig 3.1 component (b)).
//
// Takes tenant activity history, tenant information, a replication factor R
// and a performance SLA guarantee P, and produces a deployment plan
// (cluster design + tenant placement). Always-active tenants offer no room
// for consolidation and are excluded (served by dedicated nodes under
// another service plan; Chapter 3 footnote).

#ifndef THRIFTY_CORE_DEPLOYMENT_ADVISOR_H_
#define THRIFTY_CORE_DEPLOYMENT_ADVISOR_H_

#include <vector>

#include "activity/burst_detection.h"
#include "common/result.h"
#include "placement/deployment_plan.h"
#include "placement/ffd.h"
#include "workload/query_log.h"
#include "workload/tenant.h"

namespace thrifty {

/// \brief Which LIVBPwFC solver the advisor uses.
enum class GroupingSolver {
  kTwoStep,  // Algorithm 2 (default)
  kFfd,      // First-Fit-Decreasing baseline
};

/// \brief Advisor configuration.
struct AdvisorOptions {
  /// Replication factor R (also the number of MPPDBs A per group).
  int replication_factor = 3;
  /// Performance SLA guarantee P (fraction of time tenants meet their SLA).
  double sla_fraction = 0.999;
  /// Epoch size E for activity discretization (10-30 s is empirically best).
  SimDuration epoch_size = 10 * kSecond;
  GroupingSolver solver = GroupingSolver::kTwoStep;
  /// Tenants with an active ratio above this are excluded from
  /// consolidation.
  double always_active_threshold = 0.5;
  /// §5.1: exclude tenants whose regularly recurring burst window (detected
  /// over the history with `burst_detector`) starts within this horizon
  /// after deployment — "before the bursts arrive". 0 disables burst
  /// screening.
  SimDuration burst_exclusion_horizon = 0;
  BurstDetectorOptions burst_detector;
  /// Worker threads inside the grouping solve (TwoStepOptions::solver_jobs;
  /// bit-identical output for any value).
  int solver_jobs = 1;
  /// Optional warm-start seed for the two-step solver (non-owning; must
  /// outlive the Advise call). Infeasible seed groups are repaired by
  /// eviction (see TwoStepOptions::warm_start). Ignored by the FFD solver.
  const GroupingSolution* warm_start = nullptr;
};

/// \brief The advisor's output.
struct AdvisorOutput {
  DeploymentPlan plan;
  /// The raw grouping (per-group TTP, max-active, solver wall time, warm
  /// kept/repaired/evicted accounting).
  GroupingSolution grouping;
  /// Tenants excluded from consolidation (dedicated service plan).
  std::vector<TenantSpec> excluded_tenants;
  /// Activity fingerprints of the excluded tenants over the advised
  /// window, parallel to `excluded_tenants` (the plan's groups carry their
  /// members' fingerprints in GroupDeployment::member_activity_baseline).
  std::vector<double> excluded_active_ratios;

  /// \brief Nodes consumed by excluded tenants' dedicated MPPDBs.
  int64_t ExcludedNodes() const;
};

/// \brief Computes deployment plans from tenant history.
class DeploymentAdvisor {
 public:
  explicit DeploymentAdvisor(AdvisorOptions options = AdvisorOptions());

  const AdvisorOptions& options() const { return options_; }

  /// \brief Produces a deployment plan from the given history window.
  ///
  /// `history` must contain one log per tenant in `tenants` (matched by id).
  Result<AdvisorOutput> Advise(const std::vector<TenantSpec>& tenants,
                               const std::vector<TenantLog>& history,
                               SimTime history_begin,
                               SimTime history_end) const;

 private:
  AdvisorOptions options_;
};

}  // namespace thrifty

#endif  // THRIFTY_CORE_DEPLOYMENT_ADVISOR_H_
