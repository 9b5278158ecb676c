#include "mppdb/instance.h"

#include <vector>

#include <gtest/gtest.h>

#include "mppdb/query_model.h"
#include "sim/engine.h"

namespace thrifty {
namespace {

QueryTemplate MakeTemplate(double work_seconds_per_gb, double serial = 0.0) {
  QueryTemplate t;
  t.id = 1;
  // Appended, not assigned: `t.name = "q"` draws a GCC 12 -Wrestrict false
  // positive from the inlined string assignment.
  t.name += 'q';
  t.work_seconds_per_gb = work_seconds_per_gb;
  t.serial_fraction = serial;
  return t;
}

class InstanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    instance_ = std::make_unique<MppdbInstance>(0, 4, &engine_);
    instance_->AddTenant(1, 100);
    instance_->AddTenant(2, 100);
    instance_->set_completion_callback(
        [this](const QueryCompletion& c) { completions_.push_back(c); });
  }

  Status Submit(QueryId qid, TenantId tenant, const QueryTemplate& tmpl,
                SimDuration reference = 0) {
    QuerySubmission s;
    s.query_id = qid;
    s.tenant_id = tenant;
    s.template_id = tmpl.id;
    s.reference_latency = reference;
    return instance_->Submit(s, tmpl);
  }

  SimEngine engine_;
  std::unique_ptr<MppdbInstance> instance_;
  std::vector<QueryCompletion> completions_;
};

TEST_F(InstanceTest, SingleQueryCompletesAtDedicatedLatency) {
  QueryTemplate t = MakeTemplate(1.0);  // 100 GB on 4 nodes -> 25 s
  ASSERT_TRUE(Submit(10, 1, t).ok());
  engine_.Run();
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_EQ(completions_[0].query_id, 10);
  EXPECT_EQ(completions_[0].MeasuredLatency(), 25 * kSecond);
  EXPECT_EQ(completions_[0].dedicated_latency, 25 * kSecond);
  EXPECT_EQ(completions_[0].max_concurrency, 1);
}

TEST_F(InstanceTest, TwoConcurrentQueriesRunTwiceSlower) {
  // The Fig 1.1a 2T-CON behaviour.
  QueryTemplate t = MakeTemplate(1.0);
  ASSERT_TRUE(Submit(1, 1, t).ok());
  ASSERT_TRUE(Submit(2, 2, t).ok());
  engine_.Run();
  ASSERT_EQ(completions_.size(), 2u);
  for (const auto& c : completions_) {
    EXPECT_EQ(c.MeasuredLatency(), 50 * kSecond);
    EXPECT_EQ(c.max_concurrency, 2);
  }
}

TEST_F(InstanceTest, SequentialQueriesUnaffected) {
  // The Fig 1.1a xT-SEQ behaviour: one after another = dedicated speed.
  QueryTemplate t = MakeTemplate(1.0);
  ASSERT_TRUE(Submit(1, 1, t).ok());
  engine_.Run();
  ASSERT_TRUE(Submit(2, 2, t).ok());
  engine_.Run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].MeasuredLatency(), 25 * kSecond);
  EXPECT_EQ(completions_[1].MeasuredLatency(), 25 * kSecond);
}

TEST_F(InstanceTest, StaggeredArrivalProcessorSharing) {
  // A (100 s alone) starts at 0; B (100 s alone) starts at 50 s.
  // A runs alone for 50 s (half done), then shares: 50 s of work left at
  // rate 1/2 -> finishes at t = 150 s. B then runs alone with 50 s left ->
  // finishes at t = 200 s.
  QueryTemplate t = MakeTemplate(4.0);  // 400 s on 1 node, 100 s on 4.
  ASSERT_TRUE(Submit(1, 1, t).ok());
  engine_.ScheduleAt(50 * kSecond, [&](SimTime) {
    ASSERT_TRUE(Submit(2, 2, t).ok());
  });
  engine_.Run();
  ASSERT_EQ(completions_.size(), 2u);
  EXPECT_EQ(completions_[0].query_id, 1);
  EXPECT_EQ(completions_[0].finish_time, 150 * kSecond);
  EXPECT_EQ(completions_[1].query_id, 2);
  EXPECT_EQ(completions_[1].finish_time, 200 * kSecond);
}

TEST_F(InstanceTest, WorkIsConservedUnderSharing) {
  // Total completion time of k simultaneous equal queries = k x dedicated.
  QueryTemplate t = MakeTemplate(1.0);
  for (QueryId q = 0; q < 5; ++q) {
    ASSERT_TRUE(Submit(q, 1, t).ok());
  }
  engine_.Run();
  ASSERT_EQ(completions_.size(), 5u);
  for (const auto& c : completions_) {
    EXPECT_EQ(c.finish_time, 5 * 25 * kSecond);
  }
}

TEST_F(InstanceTest, BusyAndServingState) {
  QueryTemplate t = MakeTemplate(1.0);
  EXPECT_TRUE(instance_->IsFree());
  EXPECT_FALSE(instance_->IsServingTenant(1));
  ASSERT_TRUE(Submit(1, 1, t).ok());
  EXPECT_FALSE(instance_->IsFree());
  EXPECT_TRUE(instance_->IsServingTenant(1));
  EXPECT_FALSE(instance_->IsServingTenant(2));
  EXPECT_EQ(instance_->Concurrency(), 1);
  ASSERT_TRUE(Submit(2, 1, t).ok());
  EXPECT_EQ(instance_->Concurrency(), 2);
  EXPECT_EQ(instance_->ActiveTenantCount(), 1);
  ASSERT_TRUE(Submit(3, 2, t).ok());
  EXPECT_EQ(instance_->ActiveTenantCount(), 2);
  engine_.Run();
  EXPECT_TRUE(instance_->IsFree());
  EXPECT_EQ(instance_->completed_queries(), 3u);
}

TEST_F(InstanceTest, SubmitFailsWhenNotOnline) {
  instance_->SetState(InstanceState::kLoading);
  QueryTemplate t = MakeTemplate(1.0);
  Status st = Submit(1, 1, t);
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
}

TEST_F(InstanceTest, SubmitFailsForUnknownTenant) {
  QueryTemplate t = MakeTemplate(1.0);
  EXPECT_EQ(Submit(1, 99, t).code(), StatusCode::kNotFound);
}

TEST_F(InstanceTest, RemoveTenantBlockedWhileServing) {
  QueryTemplate t = MakeTemplate(1.0);
  ASSERT_TRUE(Submit(1, 1, t).ok());
  EXPECT_EQ(instance_->RemoveTenant(1).code(),
            StatusCode::kFailedPrecondition);
  engine_.Run();
  EXPECT_TRUE(instance_->RemoveTenant(1).ok());
  EXPECT_FALSE(instance_->HostsTenant(1));
  EXPECT_EQ(instance_->RemoveTenant(1).code(), StatusCode::kNotFound);
}

TEST_F(InstanceTest, NodeFailureSlowsExecution) {
  QueryTemplate t = MakeTemplate(1.0);  // 25 s dedicated on 4 healthy nodes
  ASSERT_TRUE(instance_->InjectNodeFailure().ok());  // 3/4 speed
  ASSERT_TRUE(Submit(1, 1, t).ok());
  engine_.Run();
  ASSERT_EQ(completions_.size(), 1u);
  // 25 s of work at 0.75 speed = 33.333 s (ceil to ms).
  EXPECT_NEAR(static_cast<double>(completions_[0].MeasuredLatency()),
              25000.0 / 0.75, 2.0);
}

TEST_F(InstanceTest, RepairRestoresSpeedMidQuery) {
  QueryTemplate t = MakeTemplate(4.0);  // 100 s dedicated
  ASSERT_TRUE(instance_->InjectNodeFailure().ok());  // 0.75 speed
  ASSERT_TRUE(Submit(1, 1, t).ok());
  engine_.ScheduleAt(30 * kSecond, [&](SimTime) {
    ASSERT_TRUE(instance_->RepairNode().ok());
  });
  engine_.Run();
  // 30 s at 0.75 speed = 22.5 s progressed; 77.5 s left at full speed.
  ASSERT_EQ(completions_.size(), 1u);
  EXPECT_NEAR(static_cast<double>(completions_[0].MeasuredLatency()),
              (30 + 77.5) * 1000, 2.0);
}

TEST_F(InstanceTest, CannotFailAllNodes) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(instance_->InjectNodeFailure().ok());
  }
  EXPECT_EQ(instance_->InjectNodeFailure().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(instance_->failed_nodes(), 3);
}

TEST_F(InstanceTest, RepairWithoutFailureFails) {
  EXPECT_EQ(instance_->RepairNode().code(), StatusCode::kFailedPrecondition);
}

TEST_F(InstanceTest, NormalizedPerformanceUsesReference) {
  QueryTemplate t = MakeTemplate(1.0);  // 25 s on this 4-node instance
  ASSERT_TRUE(Submit(1, 1, t, /*reference=*/50 * kSecond).ok());
  ASSERT_TRUE(Submit(2, 2, t, /*reference=*/50 * kSecond).ok());
  engine_.Run();
  ASSERT_EQ(completions_.size(), 2u);
  // Concurrent: each took 50 s; reference 50 s -> exactly at SLA.
  EXPECT_NEAR(completions_[0].NormalizedPerformance(), 1.0, 1e-6);
}

TEST_F(InstanceTest, BusyTimeAccumulates) {
  QueryTemplate t = MakeTemplate(1.0);
  ASSERT_TRUE(Submit(1, 1, t).ok());
  engine_.Run();  // busy 25 s
  engine_.ScheduleAt(100 * kSecond, [&](SimTime) {
    ASSERT_TRUE(Submit(2, 1, t).ok());
  });
  engine_.Run();  // busy another 25 s
  EXPECT_EQ(instance_->busy_time(), 50 * kSecond);
}

TEST_F(InstanceTest, TotalDataTracksTenants) {
  EXPECT_DOUBLE_EQ(instance_->TotalDataGb(), 200);
  instance_->AddTenant(3, 50);
  EXPECT_DOUBLE_EQ(instance_->TotalDataGb(), 250);
  EXPECT_DOUBLE_EQ(instance_->TenantDataGb(3), 50);
  EXPECT_DOUBLE_EQ(instance_->TenantDataGb(99), 0);
}

}  // namespace
}  // namespace thrifty
