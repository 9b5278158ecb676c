#include "core/deployment_advisor.h"

#include <string>
#include <unordered_map>

#include "activity/activity_vector.h"
#include "placement/two_step.h"

namespace thrifty {

int64_t AdvisorOutput::ExcludedNodes() const {
  int64_t total = 0;
  for (const auto& t : excluded_tenants) total += t.requested_nodes;
  return total;
}

DeploymentAdvisor::DeploymentAdvisor(AdvisorOptions options)
    : options_(options) {}

Result<AdvisorOutput> DeploymentAdvisor::Advise(
    const std::vector<TenantSpec>& tenants,
    const std::vector<TenantLog>& history, SimTime history_begin,
    SimTime history_end) const {
  if (history_end <= history_begin) {
    return Status::InvalidArgument("empty history window");
  }
  EpochConfig epochs;
  epochs.epoch_size = options_.epoch_size;
  epochs.begin = history_begin;
  epochs.end = history_end;

  std::unordered_map<TenantId, const TenantLog*> logs_by_id;
  for (const auto& log : history) logs_by_id[log.tenant_id] = &log;

  AdvisorOutput output;
  std::vector<TenantSpec> consolidated;
  std::vector<ActivityVector> activities;
  activities.reserve(tenants.size());
  for (const auto& spec : tenants) {
    auto it = logs_by_id.find(spec.id);
    if (it == logs_by_id.end()) {
      return Status::InvalidArgument("no history for tenant " +
                                     std::to_string(spec.id));
    }
    ActivityVector activity = MakeActivityVector(*it->second, epochs);
    if (activity.ActiveRatio() > options_.always_active_threshold) {
      output.excluded_tenants.push_back(spec);
      output.excluded_active_ratios.push_back(
          it->second->ActiveRatio(history_begin, history_end));
      continue;
    }
    if (options_.burst_exclusion_horizon > 0) {
      // §5.1: tenants with a regular burst about to arrive are excluded
      // from consolidation ahead of time. Insufficient history is not an
      // error — the tenant simply is not screened.
      auto report = DetectRegularBursts(it->second->ActivityIntervals(),
                                        history_begin, history_end,
                                        options_.burst_detector);
      if (report.ok() && report->HasRegularBursts()) {
        bool imminent = false;
        for (const auto& window : report->windows) {
          TimeInterval next = window.NextOccurrence(
              history_end, options_.burst_detector.period);
          if (next.begin <
              history_end + options_.burst_exclusion_horizon) {
            imminent = true;
            break;
          }
        }
        if (imminent) {
          output.excluded_tenants.push_back(spec);
          output.excluded_active_ratios.push_back(
              it->second->ActiveRatio(history_begin, history_end));
          continue;
        }
      }
    }
    consolidated.push_back(spec);
    activities.push_back(std::move(activity));
  }
  if (consolidated.empty()) {
    output.plan.replication_factor = options_.replication_factor;
    output.plan.sla_fraction = options_.sla_fraction;
    return output;
  }

  THRIFTY_ASSIGN_OR_RETURN(
      PackingProblem problem,
      MakePackingProblem(consolidated, activities, options_.replication_factor,
                         options_.sla_fraction));
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
          logs_by_id.at(tenant.id)->ActiveRatio(history_begin, history_end));
    }
  }
  return output;
}

}  // namespace thrifty
