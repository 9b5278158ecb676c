// Hierarchical shard -> solve -> merge placement: the two-step solver at
// 10^5-10^6 tenants.
//
// The flat two-step heuristic (placement/two_step.h) scans every remaining
// candidate per group-grow step, so one solve is ~quadratic in the tenants
// of a size class — fine at the paper's thousands of tenants, hopeless at a
// million. SolveHierarchical restores near-linear scaling with the standard
// partition-then-central-merge shape:
//
//   1. *Shard*: tenants are clustered by a coarse, deterministic activity
//      fingerprint — per-band popcounts of the ActivityVector's epoch words
//      (computed with the simd:: span-popcount kernels), quantized to a
//      128-bit signature — so tenants with overlapping active phases land
//      in the same shard, then the signature-sorted order is chopped into
//      logical shards of ~shard_tenant_target tenants.
//   2. *Solve*: each shard is an independent LIVBPwFC sub-instance, and
//      the two-step solve's step 1 splits it further by requested nodes
//      into size classes that are grown independently. The unit of work is
//      therefore one (shard, size class) pair, solved with the existing
//      SolveTwoStep core as a single-class sub-problem. All pairs fan
//      across workers in one ParallelFor (shard_jobs), claimed largest
//      first so no worker idles while one big shard finishes; each task
//      composes with the candidate-argmin sharding (solver_jobs).
//   3. *Merge*: sharding leaves each shard's last group per size class
//      under-filled (the boundary waste the flat solver would not have). A
//      central pass re-opens exactly the groups whose fill is below
//      merge_fill_threshold of their class's fullest group, pools their
//      members together with a few least-populated *absorber* groups, and
//      re-solves those small deltas with SolveTwoStep warm-seeded on the
//      absorbers (the repair machinery keeps the absorber seeds open so
//      pooled tenants merge into spare capacity instead of fragmenting).
//      Merge solves are chunked at ~shard_tenant_target pooled tenants and
//      fanned over the same workers (largest chunk first), so the pass
//      never re-creates the quadratic central solve it exists to avoid.
//
// Determinism contract: the logical shard partition is a pure function of
// the tenant set (ids + activity + shard_tenant_target) —
// never of shard_jobs or solver_jobs, which only change how the same
// (shard, size class) solves are spread across threads. Each task's groups
// land in its own slot; a shard's groups are its tasks' groups in
// descending class order — exactly what SolveTwoStep on the whole shard
// emits — whatever order the tasks were claimed and finished in. Group
// output order is canonical (size class descending, then shard-major, then
// the merge pass's groups), and the merge pass is a function of the
// per-shard plans alone, so the returned plan is byte-identical at any
// shard_jobs x solver_jobs. tests/hierarchical_test.cc locks this, and bench_scale_sweep
// records the fingerprints.

#ifndef THRIFTY_PLACEMENT_HIERARCHICAL_H_
#define THRIFTY_PLACEMENT_HIERARCHICAL_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "placement/problem.h"

namespace thrifty {

/// \brief Execution knobs of the hierarchical solver. All parallelism
/// knobs are output-invariant; only shard_tenant_target and
/// merge_fill_threshold change the plan (they define the logical partition
/// and the merge rule, both pure functions of the tenant set).
struct HierarchicalOptions {
  /// Worker threads fanning the (shard, size class) solves and the merge
  /// chunks (values < 1 clamp to 1, the serial path). Composes
  /// multiplicatively with solver_jobs.
  int shard_jobs = 1;
  /// TwoStepOptions::solver_jobs for every per-shard solve and the merge
  /// solve (values < 1 clamp to 1; see the TwoStepOptions contract).
  int solver_jobs = 1;
  /// Target tenants per logical shard; the tenant count is chopped into
  /// ceil(n / shard_tenant_target) equal shards (values < 1 clamp to 1).
  /// Larger shards approach flat-solve effectiveness at flat-solve cost;
  /// the default keeps a shard solve in the low seconds while the merge
  /// pass recovers the boundary waste.
  size_t shard_tenant_target = 2048;
  /// A group re-opens for the merge pass when its tenant count is below
  /// this fraction of its size class's fullest group (0 disables merging;
  /// values > 1 re-open everything up to the fullest group). Re-opened
  /// groups are re-solved in merge *chunks* of ~shard_tenant_target pooled
  /// tenants, so the central pass stays near-linear at any shard count.
  double merge_fill_threshold = 0.7;
};

/// \brief Phase accounting of one hierarchical solve.
struct HierarchicalStats {
  size_t num_logical_shards = 0;
  size_t min_shard_tenants = 0;
  size_t max_shard_tenants = 0;
  /// Groups produced by the per-shard solves, before merging.
  size_t groups_before_merge = 0;
  /// Under-filled groups dissolved into the merge pool.
  size_t groups_reopened = 0;
  /// Kept groups re-opened as warm absorber seeds.
  size_t absorbers_opened = 0;
  /// Tenants pooled into the central merge solve (re-opened + absorbers).
  size_t merge_pool_tenants = 0;
  /// Schedule counters, deterministic like the ones above: the (shard, size
  /// class) tasks of the shard phase and the merge chunks, each with its
  /// largest member count (two-step cost grows ~quadratically in it, so the
  /// largest task bounds the phase's wall time on any number of workers).
  size_t class_tasks = 0;
  size_t max_class_task_tenants = 0;
  size_t merge_chunks = 0;
  size_t max_merge_chunk_tenants = 0;
  /// The two-step argmin work counters (GroupingSolution::argmin_*),
  /// summed over every shard-class task and merge chunk. Neither depends
  /// on shard_jobs; the bound skips depend on solver_jobs.
  size_t argmin_candidates = 0;
  size_t argmin_bound_skips = 0;
  double signature_seconds = 0;
  double shard_solve_seconds = 0;
  double merge_seconds = 0;
};

/// \brief Coarse 128-bit activity signature: the horizon is split into up
/// to 32 bands and each band's active-epoch popcount is quantized to 4 bits
/// against the tenant's fullest band. Tenants with the same active phase
/// (e.g. the same office-hour time zone) share a signature prefix, so
/// sorting by signature clusters overlapping tenants.
struct ActivitySignature {
  uint64_t hi = 0;
  uint64_t lo = 0;

  friend bool operator==(const ActivitySignature& a,
                         const ActivitySignature& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator<(const ActivitySignature& a,
                        const ActivitySignature& b) {
    if (a.hi != b.hi) return a.hi < b.hi;
    return a.lo < b.lo;
  }
};

/// \brief Computes the banded signature of one activity vector. Pure and
/// deterministic; an all-zero vector maps to the all-zero signature.
/// `bands` clamps to [1, 32]; the shard partition uses all 32.
ActivitySignature ComputeActivitySignature(const ActivityVector& v,
                                           size_t bands);

/// \brief The logical shard partition: item indices of `problem`, grouped
/// by shard in solve order. A pure function of the tenant set and the
/// partition knob shard_tenant_target — permuting
/// problem.items or changing any parallelism knob yields the same tenant
/// partition. Exposed for tests and diagnostics.
std::vector<std::vector<size_t>> ComputeShardPartition(
    const PackingProblem& problem, const HierarchicalOptions& options);

/// \brief Solves the problem hierarchically (shard -> solve -> merge).
///
/// The returned solution passes VerifySolution and is byte-identical for
/// any shard_jobs/solver_jobs. `stats`, when non-null, receives
/// phase accounting.
Result<GroupingSolution> SolveHierarchical(
    const PackingProblem& problem,
    const HierarchicalOptions& options = HierarchicalOptions(),
    HierarchicalStats* stats = nullptr);

}  // namespace thrifty

#endif  // THRIFTY_PLACEMENT_HIERARCHICAL_H_
