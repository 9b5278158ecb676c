// Hierarchical shard -> solve -> merge placement (placement/hierarchical.h):
// the logical shard partition must be a pure function of the tenant set,
// merged plans must verify, and the returned plan must be byte-identical
// at every shard_jobs x solver_jobs combination.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "placement/hierarchical.h"
#include "placement/two_step.h"

namespace thrifty {
namespace {

struct Instance {
  std::vector<ActivityVector> activities;
  std::vector<TenantSpec> tenants;
};

// Tenants with phase-structured activity (a handful of "time zones" over
// the horizon) plus some all-zero tenants, from an id-keyed Rng stream so
// any failure replays from the case seed alone.
Instance RandomInstance(uint64_t seed, int num_tenants, size_t num_epochs) {
  Instance inst;
  const std::vector<int> sizes = {2, 4, 8};
  Rng rng(seed);
  for (TenantId id = 1; id <= num_tenants; ++id) {
    Rng tenant_rng = rng.Fork(static_cast<uint64_t>(id));
    DynamicBitmap bits(num_epochs);
    size_t phase = tenant_rng.NextBounded(4) * (num_epochs / 4);
    int runs = static_cast<int>(tenant_rng.NextInt(0, 3));
    for (int run = 0; run < runs; ++run) {
      size_t begin = phase + tenant_rng.NextBounded(num_epochs / 4);
      bits.SetRange(begin, std::min(num_epochs,
                                    begin + 4 + tenant_rng.NextBounded(24)));
    }
    inst.activities.push_back(ActivityVector::FromBitmap(id, bits));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = sizes[tenant_rng.NextBounded(sizes.size())];
    inst.tenants.push_back(spec);
  }
  return inst;
}

// Tenant-id view of a partition, for comparing partitions computed from
// differently-ordered item arrays.
std::vector<std::vector<TenantId>> PartitionTenants(
    const PackingProblem& problem,
    const std::vector<std::vector<size_t>>& partition) {
  std::vector<std::vector<TenantId>> out;
  for (const auto& shard : partition) {
    std::vector<TenantId> ids;
    for (size_t index : shard) ids.push_back(problem.items[index].tenant_id);
    out.push_back(std::move(ids));
  }
  return out;
}

TEST(HierarchicalTest, PartitionIsPureFunctionOfTenantSet) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Instance inst = RandomInstance(seed, 240, 512);
    auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
    ASSERT_TRUE(problem.ok());
    HierarchicalOptions options;
    options.shard_tenant_target = 48;
    auto base = PartitionTenants(
        *problem, ComputeShardPartition(*problem, options));

    // Reverse the item array: shard membership and within-shard order must
    // not move (the partition sorts by a strict total order over ids).
    PackingProblem reversed = *problem;
    std::reverse(reversed.items.begin(), reversed.items.end());
    auto permuted = PartitionTenants(
        reversed, ComputeShardPartition(reversed, options));
    EXPECT_EQ(base, permuted) << "seed=" << seed;

    // Parallelism knobs must not reach the partition.
    HierarchicalOptions parallel = options;
    parallel.shard_jobs = 4;
    parallel.solver_jobs = 3;
    EXPECT_EQ(base, PartitionTenants(
                        *problem, ComputeShardPartition(*problem, parallel)))
        << "seed=" << seed;

    size_t covered = 0;
    for (const auto& shard : base) {
      EXPECT_FALSE(shard.empty()) << "seed=" << seed;
      covered += shard.size();
    }
    EXPECT_EQ(covered, problem->items.size()) << "seed=" << seed;
  }
}

TEST(HierarchicalTest, MergedPlansVerify) {
  for (uint64_t seed : {21u, 22u, 23u, 24u}) {
    Instance inst = RandomInstance(seed, 300, 512);
    auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
    ASSERT_TRUE(problem.ok());
    HierarchicalOptions options;
    options.shard_tenant_target = 64;
    HierarchicalStats stats;
    auto solution = SolveHierarchical(*problem, options, &stats);
    ASSERT_TRUE(solution.ok()) << "seed=" << seed;
    EXPECT_TRUE(VerifySolution(*problem, *solution).ok()) << "seed=" << seed;
    EXPECT_GE(stats.num_logical_shards, 4u) << "seed=" << seed;
    EXPECT_GE(stats.groups_before_merge, solution->groups.size())
        << "seed=" << seed;
  }
}

TEST(HierarchicalTest, FingerprintIdenticalAcrossParallelism) {
  Instance inst = RandomInstance(31, 260, 512);
  auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  HierarchicalOptions base_options;
  base_options.shard_tenant_target = 48;
  auto base = SolveHierarchical(*problem, base_options);
  ASSERT_TRUE(base.ok());
  const uint64_t base_fp = GroupingFingerprint(*base);

  for (int shard_jobs : {1, 2, 4}) {
    for (int solver_jobs : {1, 2, 4}) {
      HierarchicalOptions options = base_options;
      options.shard_jobs = shard_jobs;
      options.solver_jobs = solver_jobs;
      auto solution = SolveHierarchical(*problem, options);
      ASSERT_TRUE(solution.ok())
          << "shard_jobs=" << shard_jobs << " solver_jobs=" << solver_jobs;
      EXPECT_EQ(base_fp, GroupingFingerprint(*solution))
          << "shard_jobs=" << shard_jobs << " solver_jobs=" << solver_jobs;
    }
  }
}

TEST(HierarchicalTest, MatchesFlatSolveWhenOneShard) {
  Instance inst = RandomInstance(41, 120, 512);
  auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  auto flat = SolveTwoStep(*problem);
  ASSERT_TRUE(flat.ok());

  // One logical shard and a merge threshold of 0 disable both phases, so
  // the hierarchical plan must reduce to the flat plan byte for byte.
  HierarchicalOptions options;
  options.shard_tenant_target = 4096;
  options.merge_fill_threshold = 0;
  HierarchicalStats stats;
  auto hier = SolveHierarchical(*problem, options, &stats);
  ASSERT_TRUE(hier.ok());
  EXPECT_EQ(stats.num_logical_shards, 1u);
  EXPECT_EQ(stats.groups_reopened, 0u);
  EXPECT_EQ(GroupingFingerprint(*flat), GroupingFingerprint(*hier));
}

TEST(HierarchicalTest, DirectedEmptyAndSingleTenant) {
  PackingProblem empty;
  empty.num_epochs = 64;
  auto empty_solution = SolveHierarchical(empty);
  ASSERT_TRUE(empty_solution.ok());
  EXPECT_TRUE(empty_solution->groups.empty());

  Instance inst = RandomInstance(51, 1, 128);
  auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  // More shard workers than logical shards: the idle workers must be
  // harmless.
  HierarchicalOptions options;
  options.shard_jobs = 4;
  HierarchicalStats stats;
  auto solution = SolveHierarchical(*problem, options, &stats);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(stats.num_logical_shards, 1u);
  ASSERT_EQ(solution->groups.size(), 1u);
  EXPECT_EQ(solution->groups[0].tenant_ids,
            std::vector<TenantId>{inst.tenants[0].id});
  EXPECT_TRUE(VerifySolution(*problem, *solution).ok());
}

TEST(HierarchicalTest, DirectedSingleTenantShards) {
  // shard_tenant_target = 1: every tenant is its own logical shard; the
  // merge pass has to stitch the singleton groups back together.
  Instance inst = RandomInstance(61, 24, 256);
  auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  HierarchicalOptions options;
  options.shard_tenant_target = 1;
  HierarchicalStats stats;
  auto solution = SolveHierarchical(*problem, options, &stats);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(stats.num_logical_shards, 24u);
  EXPECT_EQ(stats.max_shard_tenants, 1u);
  EXPECT_TRUE(VerifySolution(*problem, *solution).ok());
}

TEST(HierarchicalTest, DirectedAllTenantsOneFingerprint) {
  // Identical activity everywhere: every tenant maps to the same signature
  // and the partition falls back to the (active epochs, id) tie-break.
  const size_t num_epochs = 256;
  DynamicBitmap bits(num_epochs);
  bits.SetRange(32, 96);
  std::vector<ActivityVector> activities;
  std::vector<TenantSpec> tenants;
  for (TenantId id = 1; id <= 40; ++id) {
    activities.push_back(ActivityVector::FromBitmap(id, bits));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = 4;
    tenants.push_back(spec);
  }
  ActivitySignature first = ComputeActivitySignature(activities[0], 32);
  for (const auto& v : activities) {
    EXPECT_TRUE(first == ComputeActivitySignature(v, 32));
  }

  auto problem = MakePackingProblem(tenants, activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  HierarchicalOptions options;
  options.shard_tenant_target = 8;
  auto base = SolveHierarchical(*problem, options);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(VerifySolution(*problem, *base).ok());
  for (int shard_jobs : {2, 4}) {
    HierarchicalOptions parallel = options;
    parallel.shard_jobs = shard_jobs;
    auto solution = SolveHierarchical(*problem, parallel);
    ASSERT_TRUE(solution.ok()) << "shard_jobs=" << shard_jobs;
    EXPECT_EQ(GroupingFingerprint(*base), GroupingFingerprint(*solution))
        << "shard_jobs=" << shard_jobs;
  }
}

TEST(HierarchicalTest, SignatureDirected) {
  const size_t num_epochs = 1024;
  DynamicBitmap zero(num_epochs);
  ActivitySignature zero_sig =
      ComputeActivitySignature(ActivityVector::FromBitmap(1, zero), 32);
  EXPECT_EQ(zero_sig.hi, 0u);
  EXPECT_EQ(zero_sig.lo, 0u);

  // Early-horizon and late-horizon tenants must differ in the leading
  // bands, so signature order separates phases.
  DynamicBitmap early(num_epochs);
  early.SetRange(0, 128);
  DynamicBitmap late(num_epochs);
  late.SetRange(num_epochs - 128, num_epochs);
  auto early_sig =
      ComputeActivitySignature(ActivityVector::FromBitmap(2, early), 32);
  auto late_sig =
      ComputeActivitySignature(ActivityVector::FromBitmap(3, late), 32);
  EXPECT_FALSE(early_sig == late_sig);
  EXPECT_TRUE(late_sig < early_sig);  // active leading bands sort higher
  EXPECT_NE(early_sig.hi, 0u);
  EXPECT_EQ(early_sig.lo, 0u);
  EXPECT_NE(late_sig.lo, 0u);

  // Band count is clamped; 0 and 1 behave identically.
  auto one_band =
      ComputeActivitySignature(ActivityVector::FromBitmap(2, early), 1);
  auto zero_bands =
      ComputeActivitySignature(ActivityVector::FromBitmap(2, early), 0);
  EXPECT_TRUE(one_band == zero_bands);
}

// A skewed instance whose partition order is known: every tenant has one
// 12-epoch run inside the same 64-epoch band, so all signatures and active
// counts tie and the partition deals tenants to shards in id order
// (shard = (id - 1) % 4 at 160 tenants and shard_tenant_target 40). The
// 2-node class holds most tenants, and shard 3 holds only 2-node tenants.
Instance SkewedInstance() {
  Instance inst;
  const size_t num_epochs = 2048;
  for (TenantId id = 1; id <= 160; ++id) {
    DynamicBitmap bits(num_epochs);
    const size_t begin = 5 * 64 + static_cast<size_t>(id * 37 % 52);
    bits.SetRange(begin, begin + 12);
    inst.activities.push_back(ActivityVector::FromBitmap(id, bits));
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = 2;
    if ((id - 1) % 4 != 3) {
      if (id % 5 == 0) spec.requested_nodes = 4;
      if (id % 7 == 0) spec.requested_nodes = 8;
    }
    inst.tenants.push_back(spec);
  }
  return inst;
}

TEST(HierarchicalTest, ClassSplitEqualsPerShardTwoStep) {
  Instance inst = SkewedInstance();
  auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  HierarchicalOptions options;
  options.shard_tenant_target = 40;
  options.merge_fill_threshold = 0;
  const auto partition = ComputeShardPartition(*problem, options);
  ASSERT_EQ(partition.size(), 4u);
  std::set<int> shard3_classes;
  for (size_t index : partition[3]) {
    shard3_classes.insert(problem->items[index].nodes);
  }
  EXPECT_EQ(shard3_classes, std::set<int>{2});
  size_t two_node = 0;
  for (const auto& item : problem->items) two_node += item.nodes == 2;
  EXPECT_GT(2 * two_node, problem->items.size());

  // The reference: SolveTwoStep on each whole shard, its groups listed
  // class by class in descending size, shard-major within a class.
  std::vector<GroupingSolution> per_shard;
  for (const auto& shard : partition) {
    PackingProblem shard_problem = *problem;
    shard_problem.items.clear();
    for (size_t index : shard) {
      shard_problem.items.push_back(problem->items[index]);
    }
    auto solved = SolveTwoStep(shard_problem);
    ASSERT_TRUE(solved.ok());
    per_shard.push_back(*std::move(solved));
  }
  std::vector<TenantGroupResult> expected;
  for (int nodes : {8, 4, 2}) {
    for (const auto& shard_solution : per_shard) {
      for (const auto& group : shard_solution.groups) {
        if (group.max_nodes == nodes) expected.push_back(group);
      }
    }
  }

  for (int shard_jobs : {1, 2, 4, 8}) {
    HierarchicalOptions parallel = options;
    parallel.shard_jobs = shard_jobs;
    auto solution = SolveHierarchical(*problem, parallel);
    ASSERT_TRUE(solution.ok()) << "shard_jobs=" << shard_jobs;
    ASSERT_EQ(solution->groups.size(), expected.size())
        << "shard_jobs=" << shard_jobs;
    for (size_t g = 0; g < expected.size(); ++g) {
      EXPECT_EQ(solution->groups[g].max_nodes, expected[g].max_nodes)
          << "shard_jobs=" << shard_jobs << " group=" << g;
      EXPECT_EQ(solution->groups[g].tenant_ids, expected[g].tenant_ids)
          << "shard_jobs=" << shard_jobs << " group=" << g;
    }
  }
}

TEST(HierarchicalTest, ScheduleCountersPinned) {
  // Six shards of ~43 tenants, each holding all three size classes: 18
  // shard-class tasks. The counters count work, not threads, so they must
  // not move with shard_jobs; a change to them is a change to the work.
  Instance inst = RandomInstance(31, 260, 512);
  auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  for (int shard_jobs : {1, 4}) {
    HierarchicalOptions options;
    options.shard_tenant_target = 48;
    options.shard_jobs = shard_jobs;
    HierarchicalStats stats;
    auto solution = SolveHierarchical(*problem, options, &stats);
    ASSERT_TRUE(solution.ok()) << "shard_jobs=" << shard_jobs;
    EXPECT_EQ(stats.class_tasks, 18u) << "shard_jobs=" << shard_jobs;
    EXPECT_EQ(stats.max_class_task_tenants, 19u) << "shard_jobs=" << shard_jobs;
    EXPECT_EQ(stats.merge_chunks, 2u) << "shard_jobs=" << shard_jobs;
    EXPECT_EQ(stats.max_merge_chunk_tenants, 84u)
        << "shard_jobs=" << shard_jobs;
    // The two-step argmin counters, summed over every task and chunk. Each
    // task solves at the default solver_jobs, so the bound skips do not
    // depend on shard_jobs either.
    EXPECT_EQ(stats.argmin_candidates, 2579u) << "shard_jobs=" << shard_jobs;
    EXPECT_EQ(stats.argmin_bound_skips, 1608u) << "shard_jobs=" << shard_jobs;
  }
}

TEST(HierarchicalTest, ParallelismKnobsClampLikeTwoStep) {
  // HierarchicalOptions delegates job validation: 0 / negative values are
  // the serial path, not an error, and the plan is unchanged.
  Instance inst = RandomInstance(71, 100, 256);
  auto problem = MakePackingProblem(inst.tenants, inst.activities, 3, 0.99);
  ASSERT_TRUE(problem.ok());
  HierarchicalOptions base;
  base.shard_tenant_target = 32;
  auto reference = SolveHierarchical(*problem, base);
  ASSERT_TRUE(reference.ok());
  HierarchicalOptions clamped = base;
  clamped.shard_jobs = 0;
  clamped.solver_jobs = -2;
  auto solution = SolveHierarchical(*problem, clamped);
  ASSERT_TRUE(solution.ok());
  EXPECT_EQ(GroupingFingerprint(*reference), GroupingFingerprint(*solution));
}

}  // namespace
}  // namespace thrifty
