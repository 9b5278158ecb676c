// LIVBPwFC: Largest Item Vector Bin Packing with Fuzzy Capacity (§5,
// Appendix 9.1).
//
// Item i = tenant (A_i, n_i): activity vector over d epochs plus requested
// node count. A set S of items fits into a bin (tenant-group) iff
// COUNT^{<=R}(sum of A_i) / d >= P — i.e. for at least P% of the epochs at
// most R tenants of the group are active (the fuzzy capacity). The objective
// minimizes sum over bins of R * (largest n_i in the bin): under the
// tenant-driven design each tenant-group is served by R MPPDBs of
// max-tenant-size nodes each.

#ifndef THRIFTY_PLACEMENT_PROBLEM_H_
#define THRIFTY_PLACEMENT_PROBLEM_H_

#include <vector>

#include "activity/activity_vector.h"
#include "common/result.h"
#include "workload/tenant.h"

namespace thrifty {

/// \brief One packing item: a tenant with its activity vector.
struct PackingItem {
  TenantId tenant_id = kInvalidTenantId;
  /// Requested node count n_i.
  int nodes = 0;
  /// Activity vector A_i; non-owning, must outlive the problem.
  const ActivityVector* activity = nullptr;
};

/// \brief A LIVBPwFC instance.
struct PackingProblem {
  std::vector<PackingItem> items;
  /// Replication factor R: each group is served by R MPPDBs, so at most R
  /// tenants of a group can be concurrently active without sharing.
  int replication_factor = 3;
  /// Performance SLA guarantee P as a fraction (0.999 for the paper's
  /// default 99.9%).
  double sla_fraction = 0.999;
  /// Epoch count d (all activity vectors must match).
  size_t num_epochs = 0;

  /// \brief Total nodes requested by all items (N).
  int64_t TotalRequestedNodes() const;

  /// \brief Validates invariants (vector sizes, parameter ranges).
  Status Validate() const;
};

/// \brief Builds a problem from tenant specs and their activity vectors
/// (matched by tenant id; every tenant must have a vector).
Result<PackingProblem> MakePackingProblem(
    const std::vector<TenantSpec>& tenants,
    const std::vector<ActivityVector>& activities, int replication_factor,
    double sla_fraction);

/// \brief One tenant-group of a solution.
struct TenantGroupResult {
  std::vector<TenantId> tenant_ids;
  /// Node count of the largest member: each of the R MPPDBs serving this
  /// group gets this many nodes.
  int max_nodes = 0;
  /// Achieved TTP at R.
  double ttp = 1.0;
  /// Maximum concurrently active tenants over the history.
  int max_active = 0;
  /// Bytes of the group's sparse level-set storage when the solver closed
  /// it (0 for solvers that do not report it).
  size_t level_set_bytes = 0;
  /// Bytes the same levels would occupy as dense full-horizon bitmaps.
  size_t level_set_dense_bytes = 0;
};

/// \brief A grouping (packing) solution.
struct GroupingSolution {
  std::vector<TenantGroupResult> groups;
  /// Wall-clock seconds the solver spent.
  double solve_seconds = 0;
  /// Warm-start accounting (two-step only); all 0 on a cold solve.
  /// Seed groups feasible as-is and kept open unchanged.
  size_t warm_groups_kept = 0;
  /// Seed groups made feasible by evicting members.
  size_t warm_groups_repaired = 0;
  /// Members evicted from repaired seed groups back into the cold pool.
  size_t warm_members_evicted = 0;
  /// Seed members dropped because their tenant id is absent from this
  /// problem (e.g. de-registered tenants in a stale seed).
  size_t warm_members_missing = 0;
  /// Argmin work counters (two-step only), deterministic: live candidates
  /// scanned over all growth steps, and of those the ones rejected by
  /// their carried top-level bounds before any word was read. The first is
  /// the same at every solver_jobs; the second only at a fixed solver_jobs,
  /// since each scan shard starts without an incumbent.
  size_t argmin_candidates = 0;
  size_t argmin_bound_skips = 0;

  /// \brief Total nodes used: sum over groups of R * max_nodes.
  int64_t NodesUsed(int replication_factor) const;

  /// \brief Sum of the groups' sparse level-set bytes at close time.
  size_t LevelSetBytes() const;

  /// \brief Sum of the groups' dense-equivalent level-set bytes.
  size_t LevelSetDenseBytes() const;

  /// \brief Fraction of requested nodes saved: 1 - used / requested.
  double ConsolidationEffectiveness(int replication_factor,
                                    int64_t requested_nodes) const;

  /// \brief Mean tenants per group.
  double AverageGroupSize() const;
};

/// \brief Checks a solution: every item packed exactly once, every group's
/// fuzzy capacity holds (TTP >= P), max_nodes consistent.
Status VerifySolution(const PackingProblem& problem,
                      const GroupingSolution& solution);

/// \brief FNV-1a 64 of a solution's membership stream: one
/// `max_nodes[id,id,...];` record per group, in group and member order.
/// Wall-clock and annotation fields are excluded, so the value is the
/// plan's deterministic identity (the fingerprint benches and CI pin).
uint64_t GroupingFingerprint(const GroupingSolution& solution);

/// \brief Recomputes per-group ttp/max_active/max_nodes from scratch.
Status AnnotateSolution(const PackingProblem& problem,
                        GroupingSolution* solution);

}  // namespace thrifty

#endif  // THRIFTY_PLACEMENT_PROBLEM_H_
