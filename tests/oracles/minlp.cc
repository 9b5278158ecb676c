#include "oracles/minlp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <string>

namespace thrifty {

AssignmentMatrix::AssignmentMatrix(size_t num_items, size_t num_groups)
    : num_items_(num_items),
      num_groups_(num_groups),
      cells_(num_items * num_groups, 0) {}

bool AssignmentMatrix::Get(size_t item, size_t group) const {
  return cells_[item * num_groups_ + group] != 0;
}

void AssignmentMatrix::Set(size_t item, size_t group, bool value) {
  cells_[item * num_groups_ + group] = value ? 1 : 0;
}

bool AssignmentMatrix::EachItemAssignedOnce() const {
  for (size_t i = 0; i < num_items_; ++i) {
    int assigned = 0;
    for (size_t j = 0; j < num_groups_; ++j) assigned += Get(i, j) ? 1 : 0;
    if (assigned != 1) return false;
  }
  return true;
}

namespace {

Status CheckShape(const PackingProblem& problem, const AssignmentMatrix& x) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  if (x.num_items() != problem.items.size()) {
    return Status::InvalidArgument("assignment rows != number of tenants");
  }
  if (x.num_groups() == 0) {
    return Status::InvalidArgument("assignment has no groups");
  }
  return Status::OK();
}

}  // namespace

Result<int64_t> MinlpObjective(const PackingProblem& problem,
                               const AssignmentMatrix& x) {
  THRIFTY_RETURN_NOT_OK(CheckShape(problem, x));
  int64_t total = 0;
  for (size_t j = 0; j < x.num_groups(); ++j) {
    int64_t largest = 0;
    for (size_t i = 0; i < x.num_items(); ++i) {
      if (x.Get(i, j)) {
        largest = std::max<int64_t>(
            largest, static_cast<int64_t>(problem.replication_factor) *
                         problem.items[i].nodes);
      }
    }
    total += largest;  // empty groups contribute 0
  }
  return total;
}

Result<size_t> MinlpGroupFeasibleEpochs(const PackingProblem& problem,
                                        const AssignmentMatrix& x,
                                        size_t group) {
  THRIFTY_RETURN_NOT_OK(CheckShape(problem, x));
  if (group >= x.num_groups()) {
    return Status::InvalidArgument("group index out of range");
  }
  // sum_i A_i[k] x_ij per epoch, then count epochs with H[R - count] = 1.
  std::vector<int64_t> counts(problem.num_epochs, 0);
  for (size_t i = 0; i < x.num_items(); ++i) {
    if (!x.Get(i, group)) continue;
    const ActivityVector& a = *problem.items[i].activity;
    const auto& widx = a.word_indices();
    const auto& wbits = a.word_bits();
    for (size_t w = 0; w < widx.size(); ++w) {
      uint64_t word = wbits[w];
      size_t base = static_cast<size_t>(widx[w]) * 64;
      while (word != 0) {
        int bit = std::countr_zero(word);
        ++counts[base + static_cast<size_t>(bit)];
        word &= word - 1;
      }
    }
  }
  size_t feasible = 0;
  for (int64_t c : counts) {
    feasible += static_cast<size_t>(
        HeavisideStep(problem.replication_factor - c));
  }
  return feasible;
}

Result<bool> MinlpFeasible(const PackingProblem& problem,
                           const AssignmentMatrix& x) {
  THRIFTY_RETURN_NOT_OK(CheckShape(problem, x));
  if (!x.EachItemAssignedOnce()) return false;  // (9.3)/(9.4)
  double required =
      problem.sla_fraction * static_cast<double>(problem.num_epochs);
  for (size_t j = 0; j < x.num_groups(); ++j) {
    bool empty = true;
    for (size_t i = 0; i < x.num_items() && empty; ++i) {
      empty = !x.Get(i, j);
    }
    if (empty) continue;
    THRIFTY_ASSIGN_OR_RETURN(size_t feasible,
                             MinlpGroupFeasibleEpochs(problem, x, j));
    if (static_cast<double>(feasible) + 1e-9 < required) return false;
  }
  return true;
}

Result<AssignmentMatrix> EncodeSolution(const PackingProblem& problem,
                                        const GroupingSolution& solution) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  size_t max_groups = static_cast<size_t>(
      std::ceil(static_cast<double>(problem.items.size()) /
                problem.replication_factor));
  size_t num_groups = std::max(solution.groups.size(), std::max<size_t>(
      max_groups, 1));
  AssignmentMatrix x(problem.items.size(), num_groups);
  for (size_t j = 0; j < solution.groups.size(); ++j) {
    for (TenantId tid : solution.groups[j].tenant_ids) {
      bool found = false;
      for (size_t i = 0; i < problem.items.size(); ++i) {
        if (problem.items[i].tenant_id == tid) {
          x.Set(i, j, true);
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("solution references unknown tenant " +
                                       std::to_string(tid));
      }
    }
  }
  return x;
}

Result<GroupingSolution> DecodeSolution(const PackingProblem& problem,
                                        const AssignmentMatrix& x) {
  THRIFTY_RETURN_NOT_OK(CheckShape(problem, x));
  if (!x.EachItemAssignedOnce()) {
    return Status::InvalidArgument("assignment violates constraint (9.3)");
  }
  GroupingSolution solution;
  for (size_t j = 0; j < x.num_groups(); ++j) {
    TenantGroupResult group;
    for (size_t i = 0; i < x.num_items(); ++i) {
      if (x.Get(i, j)) group.tenant_ids.push_back(problem.items[i].tenant_id);
    }
    if (!group.tenant_ids.empty()) solution.groups.push_back(std::move(group));
  }
  THRIFTY_RETURN_NOT_OK(AnnotateSolution(problem, &solution));
  return solution;
}

Result<GroupingSolution> SolveMinlpExhaustive(const PackingProblem& problem,
                                              size_t max_items) {
  THRIFTY_RETURN_NOT_OK(problem.Validate());
  size_t n = problem.items.size();
  if (n == 0) return GroupingSolution{};
  if (n > max_items) {
    return Status::CapacityExceeded(
        "exhaustive MINLP limited to " + std::to_string(max_items) +
        " tenants");
  }
  // Enumerate set partitions via restricted growth strings.
  std::vector<size_t> assignment(n, 0);
  std::vector<size_t> best_assignment;
  int64_t best_cost = INT64_MAX;

  // Recursive enumeration: item i may join any group used so far or open
  // the next one.
  auto evaluate = [&]() {
    size_t num_groups = 0;
    for (size_t g : assignment) num_groups = std::max(num_groups, g + 1);
    AssignmentMatrix x(n, num_groups);
    for (size_t i = 0; i < n; ++i) x.Set(i, assignment[i], true);
    auto feasible = MinlpFeasible(problem, x);
    if (!feasible.ok() || !*feasible) return;
    auto cost = MinlpObjective(problem, x);
    if (cost.ok() && *cost < best_cost) {
      best_cost = *cost;
      best_assignment = assignment;
    }
  };
  std::function<void(size_t, size_t)> recurse = [&](size_t i,
                                                    size_t used) {
    if (i == n) {
      evaluate();
      return;
    }
    for (size_t g = 0; g <= used && g < n; ++g) {
      assignment[i] = g;
      recurse(i + 1, std::max(used, g + 1));
    }
  };
  recurse(0, 0);

  if (best_assignment.empty()) {
    // Even all-singletons should be feasible (single tenant <= R active
    // whenever R >= 1); reaching here means R == 0 style degeneracy.
    return Status::Internal("no feasible partition found");
  }
  size_t num_groups = 0;
  for (size_t g : best_assignment) num_groups = std::max(num_groups, g + 1);
  AssignmentMatrix x(n, num_groups);
  for (size_t i = 0; i < n; ++i) x.Set(i, best_assignment[i], true);
  return DecodeSolution(problem, x);
}

}  // namespace thrifty
