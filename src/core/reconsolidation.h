// The (re)-consolidation cycle (Chapter 3, §5.1).
//
// "The deployment is supposed to be static for days. A (re)-consolidation
// process is expected to be executed periodically, because it is expected
// that there are new tenants register with and existing tenants de-register
// with the service." Additionally, any tenant-group that went through
// elastic scaling lands on the re-consolidation list.
//
// The planner is a *delta* solver: it keeps unaffected tenant-groups
// byte-identically as deployed (same group ids, same MPPDBs, loaded data
// untouched) and re-runs tenant grouping only over the affected tenants —
// members of scaled groups, members of groups that lost a de-registered
// tenant, members of groups whose activity fingerprint drifted beyond
// ReconsolidationOptions::activity_delta_threshold, and newly registered
// tenants. The re-solve tries both a warm start from the previous grouping
// of the affected tenants — the two-step solver's group repair (evict only
// the members that break the SLA, keep the rest grouped) carries most of
// the old structure over — and a cold re-grow of the same subset, keeping
// whichever plan consumes fewer nodes (ties prefer the warm one's stable
// memberships).

#ifndef THRIFTY_CORE_RECONSOLIDATION_H_
#define THRIFTY_CORE_RECONSOLIDATION_H_

#include <unordered_set>
#include <vector>

#include "core/deployment_advisor.h"

namespace thrifty {

/// \brief Re-consolidation knobs on top of the advisor configuration.
struct ReconsolidationOptions {
  AdvisorOptions advisor;
  /// Activity-drift screening: a group none of whose explicit triggers
  /// fired (not scaled, no de-registration) is still re-solved when some
  /// member's current activity fingerprint (TenantActivity::active_ratio
  /// over the cycle's history window) moved more than this from the
  /// baseline recorded in GroupDeployment::member_activity_baseline.
  /// Members absent from the activity index or groups without a recorded
  /// baseline never trigger. Negative disables drift screening (the
  /// pre-delta behavior: only explicit triggers re-solve).
  double activity_delta_threshold = -1.0;
  /// For each size class holding an affected tenant, additionally re-solve
  /// this many of the class's least-populated unaffected groups (the
  /// greedy tail), so hard-to-pack affected tenants can merge into their
  /// spare capacity instead of founding fragment groups — this is what
  /// keeps the delta plan's effectiveness at the cold solve's level.
  /// 0 disables (affected tenants are re-solved strictly alone).
  int absorbers_per_class = 3;
};

/// \brief Input state for one re-consolidation cycle.
struct ReconsolidationInput {
  /// The currently deployed plan.
  DeploymentPlan current_plan;
  /// Groups that went through elastic scaling since the last cycle.
  std::unordered_set<GroupId> scaled_groups;
  /// Tenants newly registered with the service.
  std::vector<TenantSpec> new_tenants;
  /// Tenants that de-registered (their groups are re-consolidated too).
  std::unordered_set<TenantId> deregistered;
};

/// \brief Output of one cycle.
struct ReconsolidationOutput {
  /// The updated plan. Untouched groups keep their group ids and are
  /// copied byte-identically; regrouped tenants get fresh group ids
  /// assigned densely starting one past the input plan's highest id, so a
  /// dissolved group's id is never reused within the cycle.
  DeploymentPlan plan;
  /// Tenants that were regrouped this cycle (excluding de-registered).
  std::vector<TenantSpec> regrouped_tenants;
  /// Group ids carried over untouched.
  std::vector<GroupId> untouched_groups;
  /// Input-plan group ids that were re-solved this cycle.
  std::vector<GroupId> resolved_groups;
  /// How many of `resolved_groups` were triggered purely by activity
  /// drift (fingerprint moved beyond activity_delta_threshold).
  size_t drifted_groups = 0;
  /// How many of `resolved_groups` were opened as absorbers (the
  /// `absorbers_per_class` least-populated unaffected groups of each size
  /// class holding an affected tenant).
  size_t absorber_groups = 0;
  /// Solver accounting of the delta re-solve (warm kept/repaired/evicted,
  /// solve wall time). Default-initialized when nothing was affected.
  GroupingSolution grouping;
};

/// \brief Plans re-consolidation cycles.
class ReconsolidationPlanner {
 public:
  explicit ReconsolidationPlanner(ReconsolidationOptions options);
  /// Advisor-options-only form: drift screening disabled.
  explicit ReconsolidationPlanner(AdvisorOptions options = AdvisorOptions());

  /// \brief Computes the next deployment plan over the index's window.
  ///
  /// `activity` must hold every affected tenant (new tenants and members of
  /// affected groups); untouched tenants are only needed for drift
  /// screening (absent tenants simply are not screened).
  Result<ReconsolidationOutput> Plan(const ReconsolidationInput& input,
                                     const ActivityIndex& activity) const;

 private:
  ReconsolidationOptions options_;
};

}  // namespace thrifty

#endif  // THRIFTY_CORE_RECONSOLIDATION_H_
