// Regression lock for the streamed epochization rollout: the grouping
// solvers must produce *identical* solutions whether their activity vectors
// were built through the dense bitmap test oracle (IntervalsToBitmap +
// FromBitmap) or streamed straight to sparse words (EpochizeIntervals).
// This is the same guarantee bench_solver_scaling's committed fingerprints
// rest on — the streamed path must be a pure representation change, never a
// behavioural one — checked here group-by-group and as an FNV-1a
// fingerprint over the canonical solution encoding, for the two-step
// heuristic at several solver_jobs values and for the exact solver.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "activity/activity_vector.h"
#include "activity/epoch.h"
#include "activity/streamed_epochizer.h"
#include "common/fnv.h"
#include "common/interval.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "oracles/dense_epochizer.h"
#include "placement/exact.h"
#include "placement/problem.h"
#include "placement/two_step.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

/// Synthetic office-hour-ish tenants: bursty activity intervals over a
/// two-hour horizon, all derived from id-keyed Rng forks.
struct SyntheticWorkload {
  std::vector<TenantSpec> tenants;
  std::vector<IntervalSet> activity;
  EpochConfig epochs;
};

SyntheticWorkload MakeSyntheticWorkload(size_t num_tenants, uint64_t seed) {
  SyntheticWorkload w;
  w.epochs = EpochConfig{kSecond, 0, 2 * kHour};
  Rng base(seed);
  for (TenantId id = 0; id < static_cast<TenantId>(num_tenants); ++id) {
    Rng rng = base.Fork(static_cast<uint64_t>(id));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = static_cast<int>(1 + rng.NextBounded(4));
    spec.data_gb = 100.0 * spec.requested_nodes;
    w.tenants.push_back(spec);

    IntervalSet activity;
    const int bursts = static_cast<int>(2 + rng.NextBounded(8));
    for (int b = 0; b < bursts; ++b) {
      SimTime begin = rng.NextInt(0, 2 * kHour - kMinute);
      activity.Add(begin, begin + rng.NextInt(kSecond / 2, 5 * kMinute));
    }
    w.activity.push_back(std::move(activity));
  }
  return w;
}

std::vector<ActivityVector> BuildDense(const SyntheticWorkload& w) {
  std::vector<ActivityVector> out;
  for (size_t i = 0; i < w.activity.size(); ++i) {
    out.push_back(ActivityVector::FromBitmap(
        w.tenants[i].id, IntervalsToBitmap(w.activity[i], w.epochs)));
  }
  return out;
}

std::vector<ActivityVector> BuildStreamed(const SyntheticWorkload& w) {
  std::vector<ActivityVector> out;
  for (size_t i = 0; i < w.activity.size(); ++i) {
    out.push_back(EpochizeIntervals(w.tenants[i].id, w.activity[i], w.epochs));
  }
  return out;
}

void ExpectVectorsIdentical(const std::vector<ActivityVector>& a,
                            const std::vector<ActivityVector>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].tenant_id(), b[i].tenant_id()) << "tenant " << i;
    EXPECT_EQ(a[i].num_epochs(), b[i].num_epochs()) << "tenant " << i;
    EXPECT_EQ(a[i].word_indices(), b[i].word_indices()) << "tenant " << i;
    EXPECT_EQ(a[i].word_bits(), b[i].word_bits()) << "tenant " << i;
  }
}

/// Canonical solution encoding + FNV-1a 64, mirroring the bench fingerprint
/// idiom: groups in solver order, each as "max_nodes[id,id,...];".
uint64_t SolutionFingerprint(const GroupingSolution& solution) {
  std::string text;
  for (const TenantGroupResult& group : solution.groups) {
    text += std::to_string(group.max_nodes);
    text += '[';
    for (TenantId id : group.tenant_ids) {
      text += std::to_string(id);
      text += ',';
    }
    text += "];";
  }
  return Fnv1a64(text);
}

void ExpectSolutionsIdentical(const GroupingSolution& a,
                              const GroupingSolution& b) {
  ASSERT_EQ(a.groups.size(), b.groups.size());
  for (size_t g = 0; g < a.groups.size(); ++g) {
    EXPECT_EQ(a.groups[g].tenant_ids, b.groups[g].tenant_ids) << "group " << g;
    EXPECT_EQ(a.groups[g].max_nodes, b.groups[g].max_nodes) << "group " << g;
  }
  EXPECT_EQ(SolutionFingerprint(a), SolutionFingerprint(b));
}

TEST(SolverFingerprintTest, DenseAndStreamedVectorsAreIdentical) {
  SyntheticWorkload w = MakeSyntheticWorkload(40, 0x51CA);
  ExpectVectorsIdentical(BuildDense(w), BuildStreamed(w));
}

TEST(SolverFingerprintTest, TwoStepIdenticalAcrossBuildPathAndJobs) {
  SyntheticWorkload w = MakeSyntheticWorkload(40, 0x51CA);
  std::vector<ActivityVector> dense = BuildDense(w);
  std::vector<ActivityVector> streamed = BuildStreamed(w);

  auto dense_problem = MakePackingProblem(w.tenants, dense, 3, 0.999);
  auto streamed_problem = MakePackingProblem(w.tenants, streamed, 3, 0.999);
  ASSERT_TRUE(dense_problem.ok()) << dense_problem.status().message();
  ASSERT_TRUE(streamed_problem.ok()) << streamed_problem.status().message();

  // Reference: dense vectors, serial solve.
  TwoStepOptions serial;
  auto reference = SolveTwoStep(*dense_problem, serial);
  ASSERT_TRUE(reference.ok()) << reference.status().message();
  ASSERT_FALSE(reference->groups.empty());
  const uint64_t reference_fp = SolutionFingerprint(*reference);

  for (int jobs : {1, 2, 4}) {
    SCOPED_TRACE("solver_jobs=" + std::to_string(jobs));
    TwoStepOptions options;
    options.solver_jobs = jobs;
    auto from_dense = SolveTwoStep(*dense_problem, options);
    auto from_streamed = SolveTwoStep(*streamed_problem, options);
    ASSERT_TRUE(from_dense.ok()) << from_dense.status().message();
    ASSERT_TRUE(from_streamed.ok()) << from_streamed.status().message();
    ExpectSolutionsIdentical(*from_dense, *reference);
    ExpectSolutionsIdentical(*from_streamed, *reference);
    EXPECT_EQ(SolutionFingerprint(*from_streamed), reference_fp);
  }
}

TEST(SolverFingerprintTest, ExactIdenticalAcrossBuildPath) {
  // The exact solver only scales to ~a dozen tenants; a small instance
  // still exercises the full branch-and-bound over both vector builds.
  SyntheticWorkload w = MakeSyntheticWorkload(9, 0xBEE5);
  std::vector<ActivityVector> dense = BuildDense(w);
  std::vector<ActivityVector> streamed = BuildStreamed(w);
  ExpectVectorsIdentical(dense, streamed);

  auto dense_problem = MakePackingProblem(w.tenants, dense, 2, 0.99);
  auto streamed_problem = MakePackingProblem(w.tenants, streamed, 2, 0.99);
  ASSERT_TRUE(dense_problem.ok()) << dense_problem.status().message();
  ASSERT_TRUE(streamed_problem.ok()) << streamed_problem.status().message();

  auto from_dense = SolveExact(*dense_problem);
  auto from_streamed = SolveExact(*streamed_problem);
  ASSERT_TRUE(from_dense.ok()) << from_dense.status().message();
  ASSERT_TRUE(from_streamed.ok()) << from_streamed.status().message();
  ExpectSolutionsIdentical(*from_dense, *from_streamed);
}

}  // namespace
}  // namespace thrifty
