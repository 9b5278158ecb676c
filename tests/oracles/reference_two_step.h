// Test oracle: the two-step heuristic (Algorithm 2, Fig 5.3 order) as a
// plain serial growth loop.
//
// Production SolveTwoStep (placement/two_step.cc) shards the candidate
// argmin across workers, resolves candidate words through a per-step
// word -> column table, screens each candidate on its top two levels,
// abandons a compare at the first losing level, and skips candidates whose
// top-level counts carried from earlier growth steps already lose. This
// oracle does none of that: every growth step evaluates every remaining
// candidate in full with GroupLevelSet::EvaluateAdd and picks the winner
// with CompareCandidateLevels, one candidate after another, on vectors
// that are erased from in place. Warm starts are revalidated and
// infeasible seeds repaired by the same documented rules, written out
// directly. Tests compare it with SolveTwoStep group for group.

#ifndef THRIFTY_TESTS_ORACLES_REFERENCE_TWO_STEP_H_
#define THRIFTY_TESTS_ORACLES_REFERENCE_TWO_STEP_H_

#include "common/result.h"
#include "placement/problem.h"

namespace thrifty {

/// \brief Solves `problem` with the serial reference two-step loop,
/// optionally seeded by `warm_start` (the TwoStepOptions::warm_start
/// contract). The result carries the groups, the warm-start counters and
/// `argmin_candidates` (candidates evaluated over all growth steps);
/// `argmin_bound_skips` stays 0 and `solve_seconds` is not measured.
Result<GroupingSolution> ReferenceTwoStep(
    const PackingProblem& problem,
    const GroupingSolution* warm_start = nullptr);

}  // namespace thrifty

#endif  // THRIFTY_TESTS_ORACLES_REFERENCE_TWO_STEP_H_
