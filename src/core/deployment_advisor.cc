#include "core/deployment_advisor.h"

#include <string>

#include "placement/two_step.h"

namespace thrifty {

int64_t AdvisorOutput::ExcludedNodes() const {
  int64_t total = 0;
  for (const auto& t : excluded_tenants) total += t.requested_nodes;
  return total;
}

DeploymentAdvisor::DeploymentAdvisor(AdvisorOptions options)
    : options_(options) {}

bool DeploymentAdvisor::BurstImminent(const IntervalSet& intervals,
                                      const EpochConfig& window) const {
  if (options_.burst_exclusion_horizon <= 0) return false;
  // §5.1: tenants with a regular burst about to arrive are excluded from
  // consolidation ahead of time. Insufficient history is not an error —
  // the tenant simply is not screened.
  auto report = DetectRegularBursts(intervals, window.begin, window.end,
                                    options_.burst_detector);
  if (!report.ok() || !report->HasRegularBursts()) return false;
  for (const auto& burst : report->windows) {
    TimeInterval next =
        burst.NextOccurrence(window.end, options_.burst_detector.period);
    if (next.begin < window.end + options_.burst_exclusion_horizon) {
      return true;
    }
  }
  return false;
}

Result<AdvisorOutput> DeploymentAdvisor::Advise(
    const std::vector<TenantSpec>& tenants,
    const std::vector<TenantLog>& history, SimTime history_begin,
    SimTime history_end) const {
  return Advise(tenants, MakeActivityIndex(history, {options_.epoch_size,
                                                     history_begin,
                                                     history_end}));
}

Result<AdvisorOutput> DeploymentAdvisor::Advise(
    const std::vector<TenantSpec>& tenants,
    const ActivityIndex& activity) const {
  const EpochConfig& epochs = activity.epochs;
  if (!epochs.Valid()) {
    return Status::InvalidArgument(
        "empty history window or non-positive epoch size");
  }
  if (epochs.epoch_size != options_.epoch_size) {
    return Status::InvalidArgument(
        "activity index epoch size " + std::to_string(epochs.epoch_size) +
        " does not match the advisor's " +
        std::to_string(options_.epoch_size));
  }

  AdvisorOutput output;
  std::vector<TenantSpec> consolidated;
  PackingProblem problem;
  problem.replication_factor = options_.replication_factor;
  problem.sla_fraction = options_.sla_fraction;
  problem.num_epochs = epochs.NumEpochs();
  for (const auto& spec : tenants) {
    auto it = activity.tenants.find(spec.id);
    if (it == activity.tenants.end()) {
      return Status::InvalidArgument("no history for tenant " +
                                     std::to_string(spec.id));
    }
    const TenantActivity& tenant = it->second;
    if (tenant.epochs.ActiveRatio() > options_.always_active_threshold ||
        BurstImminent(tenant.intervals, epochs)) {
      output.excluded_tenants.push_back(spec);
      output.excluded_active_ratios.push_back(tenant.active_ratio);
      continue;
    }
    consolidated.push_back(spec);
    problem.items.push_back({spec.id, spec.requested_nodes, &tenant.epochs});
  }
  if (consolidated.empty()) {
    output.plan.replication_factor = options_.replication_factor;
    output.plan.sla_fraction = options_.sla_fraction;
    return output;
  }

  THRIFTY_RETURN_NOT_OK(problem.Validate());
  TwoStepOptions two_step;
  two_step.solver_jobs = options_.solver_jobs;
  two_step.warm_start = options_.warm_start;
  Result<GroupingSolution> solved =
      options_.solver == GroupingSolver::kTwoStep
          ? SolveTwoStep(problem, two_step)
          : SolveFfd(problem);
  THRIFTY_RETURN_NOT_OK(solved.status());
  output.grouping = std::move(solved).value();

  THRIFTY_ASSIGN_OR_RETURN(
      output.plan,
      BuildDeploymentPlan(consolidated, output.grouping,
                          options_.replication_factor, options_.sla_fraction));
  // Record each member's activity fingerprint over the advised window, so
  // later re-consolidation cycles can detect groups whose activity drifted
  // without re-solving everything.
  for (auto& group : output.plan.groups) {
    group.member_activity_baseline.reserve(group.tenants.size());
    for (const auto& tenant : group.tenants) {
      group.member_activity_baseline.push_back(
          activity.tenants.at(tenant.id).active_ratio);
    }
  }
  return output;
}

}  // namespace thrifty
