// The two-step tenant-grouping heuristic (Algorithm 2, §5) — Thrifty's
// solver for the LIVBPwFC.
//
// Step 1 puts tenants requesting the same number of nodes into the same
// *initial group* (tenants of equal size share bins so the largest-item
// objective wastes nothing).
//
// Step 2 splits each initial group into tenant-groups: seed a group with the
// least active tenant, then repeatedly add the tenant T_best that minimizes
// the increase in the time percentage of the maximum number of active
// tenants (ties cascade to lower activity levels, exactly as in the paper's
// Fig 5.3 walkthrough; full ties resolve to the higher tenant id, matching
// Fig 5.3d). The group closes when adding T_best would drop its TTP at R
// below the SLA guarantee P.

#ifndef THRIFTY_PLACEMENT_TWO_STEP_H_
#define THRIFTY_PLACEMENT_TWO_STEP_H_

#include <vector>

#include "common/result.h"
#include "placement/problem.h"

namespace thrifty {

/// \brief Compares two candidate outcomes by the Fig 5.3 criterion.
///
/// `a` and `b` are EvaluateAdd popcount vectors (epochs with >= m active).
/// Returns negative if a is the better (smaller) outcome, positive if b is,
/// 0 on a full tie. Comparison runs over exact-level fractions from the
/// highest level downward.
int CompareCandidateLevels(const std::vector<size_t>& a,
                           const std::vector<size_t>& b);

/// \brief Execution knobs of the two-step heuristic.
struct TwoStepOptions {
  /// Worker threads inside one solve: the group-grow candidate argmin is
  /// sharded across workers and independent node-size initial groups run as
  /// parallel tasks. The grouping is bit-identical for every value — the
  /// Fig 5.3 criterion plus the tenant-id tie-break is a strict total
  /// order, and shard winners are merged in canonical shard order — so
  /// solver_jobs only changes wall-clock time. Values < 1 (0, negatives)
  /// clamp to 1, the serial code path, so wrappers deriving a job count
  /// (HierarchicalOptions, sweep configs) can pass it through unchecked.
  int solver_jobs = 1;
  /// Optional seed grouping from a neighbouring sweep point (non-owning;
  /// must outlive the solve). Each seed group is re-validated against
  /// *this* problem's activity vectors and SLA: a feasible group is kept as
  /// an already-open group and the growth loop resumes on it; an infeasible
  /// one is *repaired*: the fewest, most-SLA-damaging members are evicted
  /// one at a time (greedy by the marginal Fig 5.3 outcome of their
  /// removal, full ties evicting the higher tenant id, so the eviction
  /// sequence is a deterministic function of the group alone and identical
  /// at every solver_jobs), the repaired group stays open for the growth
  /// loop, and only the evictees return to the cold pool. Tenant ids
  /// unknown to this problem are skipped (counted in
  /// `GroupingSolution::warm_members_missing`), a tenant seeded twice
  /// counts only in its first group, and a seed group spanning several
  /// requested-node sizes is split per size class (step 1 partitions by
  /// size first). The warm result is a valid solution but not necessarily
  /// bit-identical to the cold one — see fig7_1/fig7_5 --warm-start for the
  /// measured effectiveness deltas.
  const GroupingSolution* warm_start = nullptr;
};

/// \brief Solves the problem with the two-step heuristic.
Result<GroupingSolution> SolveTwoStep(const PackingProblem& problem,
                                      const TwoStepOptions& options =
                                          TwoStepOptions());

}  // namespace thrifty

#endif  // THRIFTY_PLACEMENT_TWO_STEP_H_
