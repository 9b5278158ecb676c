// The MINLP formulation of the LIVBPwFC (Appendix 9.1).
//
// Variables x_ij in {0,1}: tenant i packed into tenant-group j, with at
// most ceil(T/R) groups. Objective (9.1): minimize
//     sum_j max_i (R * n_i * x_ij).
// Constraint (9.2): for every group j, at least P% of the d epochs have at
// most R active members:
//     sum_k H[R - sum_i A_i[k] x_ij] >= P% * d,
// with H the (discretized) Heaviside step. Constraint (9.3): every tenant
// in exactly one group.
//
// The paper notes this program has non-linear constraints and many local
// minima, so only general-purpose global optimizers apply (DIRECT took ~12
// days for 20 tenants). This test oracle implements the formulation itself
// — assignment matrices, objective and constraint evaluation — plus an
// exhaustive optimizer for tiny instances. It is a test-only cross-check of
// the solvers (no production path calls it): a GroupingSolution and its
// assignment-matrix encoding must agree on cost and feasibility, and the
// exhaustive MINLP optimum must match the branch-and-bound SolveExact.

#ifndef THRIFTY_TESTS_ORACLES_MINLP_H_
#define THRIFTY_TESTS_ORACLES_MINLP_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "placement/problem.h"

namespace thrifty {

/// \brief A 0/1 assignment matrix x_ij (row-major, T x num_groups).
class AssignmentMatrix {
 public:
  AssignmentMatrix(size_t num_items, size_t num_groups);

  size_t num_items() const { return num_items_; }
  size_t num_groups() const { return num_groups_; }

  bool Get(size_t item, size_t group) const;
  void Set(size_t item, size_t group, bool value);

  /// \brief Constraint (9.3): every item assigned to exactly one group.
  bool EachItemAssignedOnce() const;

 private:
  size_t num_items_;
  size_t num_groups_;
  std::vector<uint8_t> cells_;
};

/// \brief Discretized Heaviside step function H[n] of Appendix 9.1.
inline int HeavisideStep(int64_t n) { return n >= 0 ? 1 : 0; }

/// \brief Evaluates objective (9.1) on an assignment.
///
/// Items are indexed by their position in problem.items.
Result<int64_t> MinlpObjective(const PackingProblem& problem,
                               const AssignmentMatrix& x);

/// \brief Evaluates constraint (9.2) for one group: the count
/// sum_k H[R - sum_i A_i[k] x_ij].
Result<size_t> MinlpGroupFeasibleEpochs(const PackingProblem& problem,
                                        const AssignmentMatrix& x,
                                        size_t group);

/// \brief True iff constraints (9.2)-(9.4) all hold.
Result<bool> MinlpFeasible(const PackingProblem& problem,
                           const AssignmentMatrix& x);

/// \brief Encodes a GroupingSolution as an assignment matrix (groups in
/// solution order; requires solution.groups.size() <= ceil(T/R) columns or
/// uses exactly solution.groups.size() columns if larger).
Result<AssignmentMatrix> EncodeSolution(const PackingProblem& problem,
                                        const GroupingSolution& solution);

/// \brief Decodes an assignment matrix back into a GroupingSolution
/// (annotated with per-group stats).
Result<GroupingSolution> DecodeSolution(const PackingProblem& problem,
                                        const AssignmentMatrix& x);

/// \brief Exhaustively optimizes the MINLP (set-partition enumeration).
///
/// Only for cross-validation on tiny instances (T <= ~8; Bell(8) = 4140
/// partitions). Returns CapacityExceeded beyond `max_items`.
Result<GroupingSolution> SolveMinlpExhaustive(const PackingProblem& problem,
                                              size_t max_items = 9);

}  // namespace thrifty

#endif  // THRIFTY_TESTS_ORACLES_MINLP_H_
