#include "scaling/overactive.h"

#include <algorithm>

#include "placement/two_step.h"

namespace thrifty {

Result<std::vector<TenantId>> IdentifyOveractiveTenants(
    const std::vector<ActivityVector>& member_activity,
    int replication_factor, double sla_fraction) {
  if (member_activity.empty()) {
    return Status::InvalidArgument("empty tenant-group");
  }
  size_t num_epochs = member_activity[0].num_epochs();
  for (const auto& a : member_activity) {
    if (a.num_epochs() != num_epochs) {
      return Status::InvalidArgument("mismatched activity vector lengths");
    }
  }

  // Algorithm 2 over one size class: the first tenant-group it grows is
  // seeded with the least active member and closes where the next-best
  // addition would drop TTP below P; everyone left out is over-active.
  PackingProblem problem;
  problem.replication_factor = replication_factor;
  problem.sla_fraction = sla_fraction;
  problem.num_epochs = num_epochs;
  for (const auto& a : member_activity) {
    problem.items.push_back({a.tenant_id(), 1, &a});
  }
  THRIFTY_ASSIGN_OR_RETURN(GroupingSolution solution, SolveTwoStep(problem));

  std::vector<TenantId> overactive;
  for (size_t g = 1; g < solution.groups.size(); ++g) {
    const auto& ids = solution.groups[g].tenant_ids;
    overactive.insert(overactive.end(), ids.begin(), ids.end());
  }
  std::sort(overactive.begin(), overactive.end());
  return overactive;
}

Result<TenantId> MostActiveTenant(
    const std::vector<ActivityVector>& member_activity) {
  if (member_activity.empty()) {
    return Status::InvalidArgument("empty tenant-group");
  }
  const ActivityVector* best = &member_activity[0];
  for (const auto& a : member_activity) {
    if (a.ActiveEpochs() > best->ActiveEpochs() ||
        (a.ActiveEpochs() == best->ActiveEpochs() &&
         a.tenant_id() > best->tenant_id())) {
      best = &a;
    }
  }
  return best->tenant_id();
}

}  // namespace thrifty
