#include "oracles/minlp.h"

#include <gtest/gtest.h>

#include "fig51_fixture.h"
#include "placement/exact.h"
#include "placement/two_step.h"

namespace thrifty {
namespace {

using testing_fixtures::Fig51Activities;

std::vector<TenantSpec> UniformTenants(size_t count, int nodes) {
  std::vector<TenantSpec> tenants(count);
  for (size_t i = 0; i < count; ++i) {
    tenants[i].id = static_cast<TenantId>(i + 1);
    tenants[i].requested_nodes = nodes;
  }
  return tenants;
}

class MinlpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    activities_ = Fig51Activities();
    tenants_ = UniformTenants(6, 4);
    auto problem = MakePackingProblem(tenants_, activities_, 3, 0.999);
    ASSERT_TRUE(problem.ok());
    problem_ = *problem;
  }

  std::vector<ActivityVector> activities_;
  std::vector<TenantSpec> tenants_;
  PackingProblem problem_;
};

TEST_F(MinlpTest, HeavisideStep) {
  EXPECT_EQ(HeavisideStep(-1), 0);
  EXPECT_EQ(HeavisideStep(0), 1);
  EXPECT_EQ(HeavisideStep(5), 1);
}

TEST_F(MinlpTest, AssignmentMatrixBasics) {
  AssignmentMatrix x(3, 2);
  EXPECT_FALSE(x.EachItemAssignedOnce());
  x.Set(0, 0, true);
  x.Set(1, 1, true);
  x.Set(2, 0, true);
  EXPECT_TRUE(x.EachItemAssignedOnce());
  x.Set(2, 1, true);  // doubly assigned
  EXPECT_FALSE(x.EachItemAssignedOnce());
  x.Set(2, 1, false);
  EXPECT_TRUE(x.Get(2, 0));
  EXPECT_FALSE(x.Get(2, 1));
}

TEST_F(MinlpTest, ObjectiveIsLargestItemPerGroupTimesR) {
  // {T1..T5} in group 0, {T6} in group 1: each group costs R * 4 = 12.
  AssignmentMatrix x(6, 2);
  for (size_t i = 0; i < 5; ++i) x.Set(i, 0, true);
  x.Set(5, 1, true);
  auto cost = MinlpObjective(problem_, x);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, 24);
}

TEST_F(MinlpTest, Constraint92MatchesPaperExample) {
  // Group {T1, T4, T5, T6}: sum vector <2,2,2,2,4,3,2,1,2,1>,
  // COUNT^{<=3} = 9 (§5).
  AssignmentMatrix x(6, 2);
  x.Set(0, 0, true);  // T1
  x.Set(3, 0, true);  // T4
  x.Set(4, 0, true);  // T5
  x.Set(5, 0, true);  // T6
  x.Set(1, 1, true);
  x.Set(2, 1, true);
  auto feasible_epochs = MinlpGroupFeasibleEpochs(problem_, x, 0);
  ASSERT_TRUE(feasible_epochs.ok());
  EXPECT_EQ(*feasible_epochs, 9u);
}

TEST_F(MinlpTest, FeasibilityAgreesWithVerifySolution) {
  // The feasible Fig 5.3 grouping.
  GroupingSolution good;
  good.groups.resize(2);
  good.groups[0].tenant_ids = {3, 2, 5, 4, 6};
  good.groups[0].max_nodes = 4;
  good.groups[1].tenant_ids = {1};
  good.groups[1].max_nodes = 4;
  auto x_good = EncodeSolution(problem_, good);
  ASSERT_TRUE(x_good.ok());
  EXPECT_TRUE(*MinlpFeasible(problem_, *x_good));
  EXPECT_TRUE(VerifySolution(problem_, good).ok());

  // The infeasible all-in-one grouping (TTP(3) = 0.9 < 0.999).
  GroupingSolution bad;
  bad.groups.resize(1);
  bad.groups[0].tenant_ids = {1, 2, 3, 4, 5, 6};
  bad.groups[0].max_nodes = 4;
  auto x_bad = EncodeSolution(problem_, bad);
  ASSERT_TRUE(x_bad.ok());
  EXPECT_FALSE(*MinlpFeasible(problem_, *x_bad));
  EXPECT_FALSE(VerifySolution(problem_, bad).ok());
}

TEST_F(MinlpTest, EncodeDecodeRoundTrip) {
  auto solution = SolveTwoStep(problem_);
  ASSERT_TRUE(solution.ok());
  auto x = EncodeSolution(problem_, *solution);
  ASSERT_TRUE(x.ok());
  auto decoded = DecodeSolution(problem_, *x);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->groups.size(), solution->groups.size());
  EXPECT_EQ(decoded->NodesUsed(3), solution->NodesUsed(3));
  auto objective = MinlpObjective(problem_, *x);
  ASSERT_TRUE(objective.ok());
  EXPECT_EQ(*objective, solution->NodesUsed(3));
}

TEST_F(MinlpTest, ExhaustiveOptimumMatchesBranchAndBound) {
  auto minlp = SolveMinlpExhaustive(problem_);
  ASSERT_TRUE(minlp.ok()) << minlp.status();
  auto bnb = SolveExact(problem_);
  ASSERT_TRUE(bnb.ok());
  EXPECT_EQ(minlp->NodesUsed(3), bnb->NodesUsed(3));
  EXPECT_EQ(minlp->NodesUsed(3), 24);
}

TEST_F(MinlpTest, ExhaustiveRefusesLargeInstances) {
  auto result = SolveMinlpExhaustive(problem_, /*max_items=*/3);
  EXPECT_EQ(result.status().code(), StatusCode::kCapacityExceeded);
}

TEST_F(MinlpTest, DecodeRejectsPartialAssignments) {
  AssignmentMatrix x(6, 2);
  x.Set(0, 0, true);  // five tenants unassigned
  EXPECT_EQ(DecodeSolution(problem_, x).status().code(),
            StatusCode::kInvalidArgument);
  AssignmentMatrix wrong_rows(5, 2);
  EXPECT_EQ(MinlpObjective(problem_, wrong_rows).status().code(),
            StatusCode::kInvalidArgument);
  AssignmentMatrix full(6, 2);
  for (size_t i = 0; i < 6; ++i) full.Set(i, 0, true);
  EXPECT_EQ(MinlpGroupFeasibleEpochs(problem_, full, 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(MinlpTest, EmptyGroupsContributeNothing) {
  // Only column 1 is populated; column 0 stays empty and costs 0 while the
  // feasibility check skips it.
  AssignmentMatrix x(6, 2);
  for (size_t i = 0; i < 6; ++i) x.Set(i, 1, true);
  auto cost = MinlpObjective(problem_, x);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(*cost, 12);  // one group of max 4 nodes x R=3
  auto feasible = MinlpFeasible(problem_, x);
  ASSERT_TRUE(feasible.ok());
  EXPECT_FALSE(*feasible);  // all six together violate (9.2)
}

TEST_F(MinlpTest, RandomCrossValidationWithBranchAndBound) {
  Rng rng(2027);
  for (int trial = 0; trial < 5; ++trial) {
    const size_t num_epochs = 40;
    std::vector<ActivityVector> activities;
    std::vector<TenantSpec> tenants = UniformTenants(7, 2);
    for (TenantId id = 1; id <= 7; ++id) {
      DynamicBitmap bits(num_epochs);
      size_t begin = rng.NextBounded(num_epochs);
      bits.SetRange(begin, begin + 4 + rng.NextBounded(12));
      activities.push_back(
          ActivityVector::FromBitmap(id, bits));
    }
    auto problem = MakePackingProblem(tenants, activities, 2, 0.9);
    ASSERT_TRUE(problem.ok());
    auto minlp = SolveMinlpExhaustive(*problem);
    auto bnb = SolveExact(*problem);
    ASSERT_TRUE(minlp.ok() && bnb.ok());
    EXPECT_EQ(minlp->NodesUsed(2), bnb->NodesUsed(2)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace thrifty
