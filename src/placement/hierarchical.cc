#include "placement/hierarchical.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "placement/two_step.h"

namespace thrifty {

namespace {

// Bands of the partition's activity signature: as many as the 128-bit key
// holds at 4 bits per band.
constexpr size_t kSignatureBands = 32;

// Least-populated kept groups dealt to each merge chunk as warm-seeded
// absorbers, so pooled boundary tenants can join groups with spare fuzzy
// capacity (each absorber is consumed by exactly one chunk).
constexpr size_t kMergeAbsorbersPerChunk = 4;

}  // namespace

ActivitySignature ComputeActivitySignature(const ActivityVector& v,
                                           size_t bands) {
  bands = std::clamp<size_t>(bands, 1, kSignatureBands);
  ActivitySignature sig;
  const size_t horizon_words = (v.num_epochs() + 63) / 64;
  const auto& indices = v.word_indices();
  const auto& bits = v.word_bits();
  if (horizon_words == 0 || indices.empty()) return sig;

  // Band b covers words [b*W/bands, (b+1)*W/bands). The nonzero words are
  // stored ascending, so each band's members are one contiguous run of the
  // parallel bits array — exactly the shape the span-popcount kernel wants.
  size_t band_pops[kSignatureBands] = {};
  size_t max_pop = 0;
  size_t i = 0;
  for (size_t b = 0; b < bands && i < indices.size(); ++b) {
    const uint32_t band_end =
        static_cast<uint32_t>((b + 1) * horizon_words / bands);
    size_t first = i;
    while (i < indices.size() && indices[i] < band_end) ++i;
    band_pops[b] = simd::SpanPopcount(bits.data() + first, i - first);
    max_pop = std::max(max_pop, band_pops[b]);
  }
  if (max_pop == 0) return sig;

  // Quantize each band against the fullest one: 4 bits per band, any
  // activity at all maps to at least 1. Band 0 lands in the most
  // significant nibble so signature order == band-lexicographic order.
  for (size_t b = 0; b < bands; ++b) {
    uint64_t q = 0;
    if (band_pops[b] > 0) {
      q = std::max<uint64_t>(1, band_pops[b] * 15 / max_pop);
    }
    if (b < 16) {
      sig.hi |= q << (4 * (15 - b));
    } else {
      sig.lo |= q << (4 * (31 - b));
    }
  }
  return sig;
}

std::vector<std::vector<size_t>> ComputeShardPartition(
    const PackingProblem& problem, const HierarchicalOptions& options) {
  const size_t n = problem.items.size();
  if (n == 0) return {};
  const size_t target = std::max<size_t>(1, options.shard_tenant_target);

  struct Keyed {
    ActivitySignature sig;
    size_t active_epochs;
    TenantId tenant_id;
    size_t item_index;
  };
  std::vector<Keyed> keyed(n);
  for (size_t i = 0; i < n; ++i) {
    const PackingItem& item = problem.items[i];
    keyed[i] = {ComputeActivitySignature(*item.activity, kSignatureBands),
                item.activity->ActiveEpochs(), item.tenant_id, i};
  }
  // (signature, activity, id) is a strict total order over distinct tenant
  // ids, so the sorted sequence — and hence the partition — is invariant
  // under any permutation of problem.items.
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (!(a.sig == b.sig)) return a.sig < b.sig;
    if (a.active_epochs != b.active_epochs) {
      return a.active_epochs < b.active_epochs;
    }
    return a.tenant_id < b.tenant_id;
  });

  // Stripe the signature-sorted order round-robin across the shards. The
  // fuzzy capacity COUNT^{<=R} rewards groups whose members are active in
  // *different* epochs, so every shard must see the full spectrum of
  // activity phases to pack as well as the flat solve does; dealing
  // consecutive signature-neighbours to different shards gives each shard a
  // stratified sample of every phase (and of every node-size class) instead
  // of the sampling noise of hash sharding.
  const size_t num_shards = (n + target - 1) / target;
  std::vector<std::vector<size_t>> partition(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    partition[s].reserve(n / num_shards + 1);
  }
  for (size_t k = 0; k < n; ++k) {
    partition[k % num_shards].push_back(keyed[k].item_index);
  }
  return partition;
}

namespace {

/// One unit of the shard phase: the items of one size class within one
/// logical shard, solved as a single-class SolveTwoStep sub-problem.
struct ClassTask {
  size_t shard = 0;
  std::vector<size_t> items;
};

/// Claim order for a ParallelFor over tasks of the given sizes: largest
/// first, ties in listed order, so the longest task starts before any
/// worker could pick up a short one and the last task to finish is short.
std::vector<size_t> LargestFirst(const std::vector<size_t>& sizes) {
  std::vector<size_t> order(sizes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return sizes[a] > sizes[b];
  });
  return order;
}

/// A group produced by a shard solve, addressable in canonical
/// (shard, within-shard index) order.
struct GroupRef {
  size_t shard = 0;
  size_t index = 0;
  const TenantGroupResult* group = nullptr;

  size_t Count() const { return group->tenant_ids.size(); }
};

/// One bounded merge solve: a canonical run of re-opened groups plus its
/// warm absorber seeds. Chunking keeps every merge solve ~shard-sized, so
/// the central pass stays near-linear even when hundreds of shards pool
/// thousands of boundary tenants.
struct MergeChunk {
  int nodes = 0;
  std::vector<GroupRef> reopened;
  std::vector<GroupRef> absorbers;

  size_t GroupsConsumed() const { return reopened.size() + absorbers.size(); }

  /// Pooled tenants: the members of every re-opened and absorber group.
  size_t Tenants() const {
    size_t tenants = 0;
    for (const GroupRef& ref : reopened) tenants += ref.Count();
    for (const GroupRef& ref : absorbers) tenants += ref.Count();
    return tenants;
  }
};

/// One size class's merge plan: which groups stay untouched and which merge
/// chunks (indices into the global chunk list) rebuild the rest.
struct ClassMergePlan {
  int nodes = 0;
  std::vector<GroupRef> kept;
  std::vector<size_t> chunk_ids;
};

/// Plans one size class: re-opens the groups whose fill is below
/// merge_fill_threshold of the class's fullest group, packs them into
/// chunks of ~shard_tenant_target tenants in canonical order, and deals the
/// least-populated kept groups to the chunks as absorbers (each absorber
/// used by exactly one chunk; ties resolve in canonical (count, shard,
/// index) order). Pure planning — no solving — so the plan is a function of
/// the per-shard solutions alone.
ClassMergePlan PlanClassMerge(int nodes, std::vector<GroupRef> refs,
                              const HierarchicalOptions& options,
                              std::vector<MergeChunk>* chunks,
                              HierarchicalStats* stats) {
  ClassMergePlan plan;
  plan.nodes = nodes;
  size_t max_count = 0;
  for (const GroupRef& ref : refs) max_count = std::max(max_count, ref.Count());

  std::vector<GroupRef> reopened;
  const double fill_floor =
      options.merge_fill_threshold * static_cast<double>(max_count);
  for (const GroupRef& ref : refs) {
    if (refs.size() > 1 && static_cast<double>(ref.Count()) < fill_floor) {
      reopened.push_back(ref);
    } else {
      plan.kept.push_back(ref);
    }
  }
  if (reopened.empty()) return plan;

  const size_t budget = std::max<size_t>(1, options.shard_tenant_target);
  std::vector<MergeChunk> class_chunks;
  size_t pooled = 0;
  for (const GroupRef& ref : reopened) {
    if (class_chunks.empty() || pooled + ref.Count() > budget) {
      class_chunks.push_back(MergeChunk{nodes, {}, {}});
      pooled = 0;
    }
    class_chunks.back().reopened.push_back(ref);
    pooled += ref.Count();
  }

  // Absorbers: the least-populated kept groups, re-opened as feasible warm
  // seeds so pooled tenants can join their spare fuzzy capacity; dealt to
  // the chunks in order, kMergeAbsorbersPerChunk each. Ties resolve in
  // canonical (count, shard, index) order.
  const size_t wanted = std::min(plan.kept.size(),
                                 kMergeAbsorbersPerChunk * class_chunks.size());
  if (wanted > 0) {
    std::vector<GroupRef> by_fill = plan.kept;
    std::sort(by_fill.begin(), by_fill.end(),
              [](const GroupRef& a, const GroupRef& b) {
                if (a.Count() != b.Count()) return a.Count() < b.Count();
                if (a.shard != b.shard) return a.shard < b.shard;
                return a.index < b.index;
              });
    by_fill.resize(wanted);
    for (size_t i = 0; i < by_fill.size(); ++i) {
      class_chunks[i / kMergeAbsorbersPerChunk].absorbers.push_back(by_fill[i]);
    }
    // Remove the absorbers from the kept list, preserving canonical order.
    plan.kept.erase(
        std::remove_if(plan.kept.begin(), plan.kept.end(),
                       [&](const GroupRef& ref) {
                         for (const GroupRef& a : by_fill) {
                           if (a.shard == ref.shard && a.index == ref.index) {
                             return true;
                           }
                         }
                         return false;
                       }),
        plan.kept.end());
  }

  for (auto& chunk : class_chunks) {
    stats->groups_reopened += chunk.reopened.size();
    stats->absorbers_opened += chunk.absorbers.size();
    stats->merge_pool_tenants += chunk.Tenants();
    plan.chunk_ids.push_back(chunks->size());
    chunks->push_back(std::move(chunk));
  }
  return plan;
}

/// Solves one merge chunk: the pooled members re-solved with the absorber
/// groups as warm seeds. Falls back to the chunk's unmerged groups when the
/// merge cannot save a bin (better-of-both — every group of the class costs
/// the same R * nodes — so the pass never loses nodes; ties keep the
/// merged plan, which leaves fewer under-filled remnants behind). The
/// result's argmin counters are the merge solve's either way.
Result<GroupingSolution> SolveMergeChunk(
    const PackingProblem& problem, const MergeChunk& chunk,
    const std::unordered_map<TenantId, const PackingItem*>& items_by_id,
    const HierarchicalOptions& options) {
  PackingProblem merge_problem;
  merge_problem.replication_factor = problem.replication_factor;
  merge_problem.sla_fraction = problem.sla_fraction;
  merge_problem.num_epochs = problem.num_epochs;
  GroupingSolution warm;
  for (const GroupRef& ref : chunk.reopened) {
    for (TenantId id : ref.group->tenant_ids) {
      merge_problem.items.push_back(*items_by_id.at(id));
    }
  }
  for (const GroupRef& ref : chunk.absorbers) {
    TenantGroupResult seed;
    seed.max_nodes = chunk.nodes;
    for (TenantId id : ref.group->tenant_ids) {
      merge_problem.items.push_back(*items_by_id.at(id));
      seed.tenant_ids.push_back(id);
    }
    warm.groups.push_back(std::move(seed));
  }

  TwoStepOptions merge_options;
  merge_options.solver_jobs = options.solver_jobs;
  merge_options.warm_start = warm.groups.empty() ? nullptr : &warm;
  THRIFTY_ASSIGN_OR_RETURN(GroupingSolution merged,
                           SolveTwoStep(merge_problem, merge_options));

  if (merged.groups.size() > chunk.GroupsConsumed()) {
    merged.groups.clear();
    for (const GroupRef& ref : chunk.reopened) {
      merged.groups.push_back(*ref.group);
    }
    for (const GroupRef& ref : chunk.absorbers) {
      merged.groups.push_back(*ref.group);
    }
  }
  return merged;
}

}  // namespace

Result<GroupingSolution> SolveHierarchical(const PackingProblem& problem,
                                           const HierarchicalOptions& options,
                                           HierarchicalStats* stats) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  const auto start = std::chrono::steady_clock::now();
  HierarchicalStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = HierarchicalStats();

  const auto partition = ComputeShardPartition(problem, options);
  const size_t num_shards = partition.size();
  stats->num_logical_shards = num_shards;
  for (const auto& shard : partition) {
    stats->min_shard_tenants =
        stats->min_shard_tenants == 0
            ? shard.size()
            : std::min(stats->min_shard_tenants, shard.size());
    stats->max_shard_tenants = std::max(stats->max_shard_tenants,
                                        shard.size());
  }
  stats->signature_seconds = SecondsSince(start);

  GroupingSolution solution;
  if (num_shards == 0) {
    solution.solve_seconds = SecondsSince(start);
    return solution;
  }

  // Shard solves, one ParallelFor task per (shard, size class) pair. Step 1
  // of the two-step solve splits by requested nodes and grows each class on
  // its own, so each task is SolveTwoStep on a single-class sub-problem and
  // the classes of one shard spread over the workers instead of queueing
  // behind each other. Tasks are listed shard-major, classes descending
  // (SolveTwoStep's own output order), and claimed largest first; results
  // land in per-task slots and are concatenated in listed order, so each
  // shard's groups -- and the plan -- never see the schedule.
  const auto solve_start = std::chrono::steady_clock::now();
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(options.shard_jobs);
  std::vector<ClassTask> tasks;
  for (size_t s = 0; s < num_shards; ++s) {
    std::map<int, std::vector<size_t>, std::greater<int>> by_class;
    for (size_t item_index : partition[s]) {
      by_class[problem.items[item_index].nodes].push_back(item_index);
    }
    for (auto& [nodes, items] : by_class) {
      tasks.push_back(ClassTask{s, std::move(items)});
    }
  }
  std::vector<size_t> task_sizes;
  for (const ClassTask& task : tasks) task_sizes.push_back(task.items.size());
  const std::vector<size_t> task_order = LargestFirst(task_sizes);
  stats->class_tasks = tasks.size();
  stats->max_class_task_tenants = task_sizes[task_order.front()];
  std::vector<GroupingSolution> task_solutions(tasks.size());
  std::vector<Status> task_statuses(tasks.size(), Status::OK());
  ParallelFor(pool.get(), task_order.size(), [&](size_t k) {
    const size_t t = task_order[k];
    PackingProblem task_problem;
    task_problem.replication_factor = problem.replication_factor;
    task_problem.sla_fraction = problem.sla_fraction;
    task_problem.num_epochs = problem.num_epochs;
    task_problem.items.reserve(tasks[t].items.size());
    for (size_t item_index : tasks[t].items) {
      task_problem.items.push_back(problem.items[item_index]);
    }
    TwoStepOptions task_options;
    task_options.solver_jobs = options.solver_jobs;
    auto solved = SolveTwoStep(task_problem, task_options);
    if (solved.ok()) {
      task_solutions[t] = *std::move(solved);
    } else {
      task_statuses[t] = solved.status();
    }
  });
  for (const Status& status : task_statuses) {
    THRIFTY_RETURN_NOT_OK(status);
  }
  std::vector<std::vector<TenantGroupResult>> shard_groups(num_shards);
  for (size_t t = 0; t < tasks.size(); ++t) {
    stats->argmin_candidates += task_solutions[t].argmin_candidates;
    stats->argmin_bound_skips += task_solutions[t].argmin_bound_skips;
    for (auto& group : task_solutions[t].groups) {
      shard_groups[tasks[t].shard].push_back(std::move(group));
    }
  }
  stats->shard_solve_seconds = SecondsSince(solve_start);

  // Central merge. Classes are processed in descending node size (the
  // two-step output convention) over groups addressed in shard-major
  // order, so the merge input — and therefore the plan — is a function of
  // the per-shard solutions alone.
  const auto merge_start = std::chrono::steady_clock::now();
  std::map<int, std::vector<GroupRef>, std::greater<int>> classes;
  for (size_t s = 0; s < num_shards; ++s) {
    const auto& groups = shard_groups[s];
    for (size_t g = 0; g < groups.size(); ++g) {
      classes[groups[g].max_nodes].push_back(GroupRef{s, g, &groups[g]});
      ++stats->groups_before_merge;
    }
  }
  std::unordered_map<TenantId, const PackingItem*> items_by_id;
  items_by_id.reserve(problem.items.size());
  for (const auto& item : problem.items) {
    items_by_id.emplace(item.tenant_id, &item);
  }
  // Plan first (pure, serial), then fan the bounded merge chunks over the
  // same worker pool as the shard solves, claimed largest first; each
  // chunk's result lands in its own slot, so the output order is the plan's
  // order, not the schedule's.
  std::vector<MergeChunk> chunks;
  std::vector<ClassMergePlan> plans;
  for (auto& [nodes, refs] : classes) {
    plans.push_back(
        PlanClassMerge(nodes, std::move(refs), options, &chunks, stats));
  }
  std::vector<size_t> chunk_sizes;
  for (const MergeChunk& chunk : chunks) chunk_sizes.push_back(chunk.Tenants());
  const std::vector<size_t> chunk_order = LargestFirst(chunk_sizes);
  stats->merge_chunks = chunks.size();
  if (!chunk_order.empty()) {
    stats->max_merge_chunk_tenants = chunk_sizes[chunk_order.front()];
  }
  std::vector<GroupingSolution> chunk_solutions(chunks.size());
  std::vector<Status> chunk_statuses(chunks.size(), Status::OK());
  ParallelFor(pool.get(), chunk_order.size(), [&](size_t k) {
    const size_t c = chunk_order[k];
    auto merged = SolveMergeChunk(problem, chunks[c], items_by_id, options);
    if (merged.ok()) {
      chunk_solutions[c] = *std::move(merged);
    } else {
      chunk_statuses[c] = merged.status();
    }
  });
  for (const Status& status : chunk_statuses) {
    THRIFTY_RETURN_NOT_OK(status);
  }
  for (const GroupingSolution& merged : chunk_solutions) {
    stats->argmin_candidates += merged.argmin_candidates;
    stats->argmin_bound_skips += merged.argmin_bound_skips;
  }
  for (const ClassMergePlan& plan : plans) {
    for (const GroupRef& ref : plan.kept) {
      solution.groups.push_back(*ref.group);
    }
    for (size_t c : plan.chunk_ids) {
      for (auto& group : chunk_solutions[c].groups) {
        solution.groups.push_back(std::move(group));
      }
    }
  }
  stats->merge_seconds = SecondsSince(merge_start);
  solution.solve_seconds = SecondsSince(start);
  return solution;
}

}  // namespace thrifty
