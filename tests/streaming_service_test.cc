// Streaming service unit tests: controller dynamics, ingest validation,
// the virtual clock, and small end-to-end replay identity.

#include "service/streaming_service.h"

#include <algorithm>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "sim/clock_source.h"

namespace thrifty {
namespace {

TEST(SlaBudgetControllerTest, HoldsWithoutFeedback) {
  SlaBudgetController controller{SlaControllerOptions{}};
  double initial = controller.sla_fraction();
  controller.Observe(0, 0);
  controller.Observe(0, 0);
  EXPECT_EQ(controller.sla_fraction(), initial);
  ASSERT_EQ(controller.trajectory().size(), 2u);
  EXPECT_EQ(controller.trajectory()[0], initial);
  EXPECT_EQ(controller.trajectory()[1], initial);
}

TEST(SlaBudgetControllerTest, TightensOnHighViolationRate) {
  SlaControllerOptions options;
  SlaBudgetController controller{options};
  controller.Observe(1000, 1000);  // 100% violations, way over target
  EXPECT_GT(controller.sla_fraction(), options.initial_sla_fraction);
  EXPECT_LE(controller.sla_fraction(), options.max_sla_fraction);
}

TEST(SlaBudgetControllerTest, RelaxesOnZeroViolations) {
  SlaControllerOptions options;
  SlaBudgetController controller{options};
  controller.Observe(1000, 0);
  EXPECT_LT(controller.sla_fraction(), options.initial_sla_fraction);
  EXPECT_GE(controller.sla_fraction(), options.min_sla_fraction);
}

TEST(SlaBudgetControllerTest, ClampsToConfiguredBand) {
  SlaControllerOptions options;
  options.gain = 100.0;  // huge steps, must still stay in band
  SlaBudgetController controller{options};
  for (int i = 0; i < 5; ++i) controller.Observe(100, 100);
  EXPECT_EQ(controller.sla_fraction(), options.max_sla_fraction);
  for (int i = 0; i < 5; ++i) controller.Observe(100, 0);
  EXPECT_EQ(controller.sla_fraction(), options.min_sla_fraction);
}

TEST(SlaBudgetControllerTest, TrajectoryFingerprintTracksObservations) {
  SlaBudgetController a{SlaControllerOptions{}};
  SlaBudgetController b{SlaControllerOptions{}};
  SlaBudgetController c{SlaControllerOptions{}};
  for (int i = 0; i < 3; ++i) {
    a.Observe(1000, 25);
    b.Observe(1000, 25);
    c.Observe(1000, 15);
  }
  EXPECT_EQ(a.TrajectoryFingerprint(), b.TrajectoryFingerprint());
  EXPECT_NE(a.TrajectoryFingerprint(), c.TrajectoryFingerprint());
}

TEST(ClockSourceTest, VirtualClockIsMonotone) {
  VirtualClock clock(100);
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceTo(50);  // into the past: ignored
  EXPECT_EQ(clock.Now(), 100);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.Now(), 500);
  clock.Advance(-10);  // negative delta: ignored
  EXPECT_EQ(clock.Now(), 500);
  clock.Advance(10);
  EXPECT_EQ(clock.Now(), 510);
}

// --- Service fixtures -------------------------------------------------

TenantSpec MakeTenant(TenantId id, int nodes) {
  TenantSpec spec;
  spec.id = id;
  spec.requested_nodes = nodes;
  spec.data_gb = nodes * kDataGbPerNode;
  return spec;
}

/// A sparse synthetic day of activity: one minute-long query per hour,
/// phase-shifted per tenant so members overlap little.
std::vector<QueryLogEntry> SparseDay(TenantId id) {
  std::vector<QueryLogEntry> entries;
  for (int h = 0; h < 24; ++h) {
    SimTime submit = h * kHour + (id % 7) * 5 * kMinute;
    entries.push_back({submit, 0, kMinute, -1});
  }
  return entries;
}

StreamingServiceOptions SmallOptions() {
  StreamingServiceOptions options;
  options.reconsolidation.advisor.replication_factor = 2;
  options.reconsolidation.activity_delta_threshold = 0.003;
  options.history_begin = 0;
  options.history_end = kDay;
  options.cycle_period = kHour;
  return options;
}

/// The epoch grid the service's cycles plan over.
EpochConfig HistoryGrid(const StreamingServiceOptions& options) {
  return {options.reconsolidation.advisor.epoch_size, options.history_begin,
          options.history_end};
}

Status RegisterTenants(StreamingService* service, SimTime t,
                       const std::vector<TenantSpec>& specs) {
  for (const TenantSpec& spec : specs) {
    THRIFTY_RETURN_NOT_OK(
        service->Ingest(MakeRegisterEvent(t, spec, SparseDay(spec.id))));
  }
  return Status::OK();
}

TEST(StreamingServiceTest, RejectsDuplicateRegistration) {
  StreamingService service(SmallOptions());
  ASSERT_TRUE(RegisterTenants(&service, 0, {MakeTenant(1, 2)}).ok());
  Status st = service.Ingest(MakeRegisterEvent(1, MakeTenant(1, 2), {}));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(service.event_log().size(), 1u);  // rejected event not appended
}

TEST(StreamingServiceTest, RejectsUnknownTenantEvents) {
  StreamingService service(SmallOptions());
  EXPECT_EQ(service.Ingest(MakeDeregisterEvent(0, 77)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Ingest(MakeActivityDriftEvent(0, 77, 2)).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Ingest(MakeGroupFailureEvent(0, 3)).code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(service.event_log().empty());
}

TEST(StreamingServiceTest, RejectsTimeRegression) {
  StreamingService service(SmallOptions());
  ASSERT_TRUE(RegisterTenants(&service, 100, {MakeTenant(1, 2)}).ok());
  Status st = service.Ingest(MakeDeregisterEvent(50, 1));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("regresses"), std::string::npos);
}

TEST(StreamingServiceTest, RejectsOverfullSlaReport) {
  StreamingService service(SmallOptions());
  EXPECT_EQ(service.Ingest(MakeSlaReportEvent(0, 10, 11)).code(),
            StatusCode::kInvalidArgument);
}

TEST(StreamingServiceTest, RejectsNegativeLatencyRegistration) {
  std::vector<QueryLogEntry> entries = SparseDay(1);
  entries[3].observed_latency = -kSecond;
  TenantEvent bad = MakeRegisterEvent(0, MakeTenant(1, 2), entries);

  StreamingService service(SmallOptions());
  Status st = service.Ingest(bad);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("negative latency"), std::string::npos);
  EXPECT_TRUE(service.event_log().empty());  // rejected, not appended
  EXPECT_TRUE(service.CurrentHistory().empty());

  // The same record arriving through an encoded log fails the replay.
  auto replay = StreamingService::Replay(EncodeEventLog({bad}), SmallOptions());
  EXPECT_EQ(replay.status().code(), StatusCode::kInvalidArgument);
}

TEST(StreamingServiceTest, DeregisterOfPendingRegistrationCancels) {
  StreamingService service(SmallOptions());
  ASSERT_TRUE(
      RegisterTenants(&service, 0, {MakeTenant(1, 2), MakeTenant(2, 2)}).ok());
  ASSERT_TRUE(service.Ingest(MakeDeregisterEvent(1, 2)).ok());
  ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(kHour)).ok());
  std::vector<TenantSpec> specs = service.RegisteredSpecs();
  ASSERT_EQ(specs.size(), 1u);
  EXPECT_EQ(specs[0].id, 1);
  // Both events stay in the log; replay reproduces the cancellation.
  EXPECT_EQ(service.event_log().size(), 4u);
  auto replay = StreamingService::Replay(service.EncodeLog(), SmallOptions());
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->DecisionFingerprint(), service.DecisionFingerprint());
}

TEST(StreamingServiceTest, ConsolidatesRegisteredTenants) {
  StreamingService service(SmallOptions());
  std::vector<TenantSpec> specs;
  for (TenantId id = 0; id < 6; ++id) specs.push_back(MakeTenant(id, 2));
  ASSERT_TRUE(RegisterTenants(&service, 0, specs).ok());
  ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(kHour)).ok());

  ASSERT_EQ(service.decisions().size(), 1u);
  const CycleDecision& decision = service.decisions()[0];
  EXPECT_EQ(decision.cycle, 0u);
  EXPECT_EQ(decision.time, kHour);
  EXPECT_EQ(decision.events_consumed, 7u);
  EXPECT_EQ(decision.plan_fingerprint, PlanFingerprint(service.current_plan()));

  // Every tenant placed exactly once.
  size_t placed = 0;
  for (const auto& group : service.current_plan().groups) {
    placed += group.tenants.size();
    EXPECT_TRUE(service.current_plan().GroupOf(group.tenants[0].id).ok());
  }
  EXPECT_EQ(placed, specs.size());
}

TEST(StreamingServiceTest, ChurnCyclesReplayByteIdentically) {
  StreamingService service(SmallOptions());
  std::vector<TenantSpec> specs;
  for (TenantId id = 0; id < 6; ++id) specs.push_back(MakeTenant(id, 2));
  ASSERT_TRUE(RegisterTenants(&service, 0, specs).ok());
  ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(kHour)).ok());
  // Cycle 1: one out, one in, one drifted, feedback.
  ASSERT_TRUE(service.Ingest(MakeDeregisterEvent(kHour + 1, 3)).ok());
  ASSERT_TRUE(
      service
          .Ingest(MakeRegisterEvent(kHour + 2, MakeTenant(9, 2), SparseDay(9)))
          .ok());
  ASSERT_TRUE(service.Ingest(MakeActivityDriftEvent(kHour + 3, 1, 2)).ok());
  ASSERT_TRUE(service.Ingest(MakeSlaReportEvent(kHour + 4, 500, 25)).ok());
  ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(2 * kHour)).ok());
  ASSERT_EQ(service.decisions().size(), 2u);

  std::string encoded = service.EncodeLog();
  auto replay = StreamingService::Replay(encoded, SmallOptions());
  ASSERT_TRUE(replay.ok()) << replay.status();
  EXPECT_EQ(replay->EncodeLog(), encoded);
  EXPECT_EQ(replay->DecisionFingerprint(), service.DecisionFingerprint());
  EXPECT_EQ(replay->controller().TrajectoryFingerprint(),
            service.controller().TrajectoryFingerprint());
  EXPECT_EQ(PlanFingerprint(replay->current_plan()),
            PlanFingerprint(service.current_plan()));
  EXPECT_EQ(replay->min_sla_fraction(), service.min_sla_fraction());

  // The de-registered tenant is gone, the fresh one placed.
  EXPECT_FALSE(service.current_plan().GroupOf(3).ok());
  EXPECT_TRUE(service.current_plan().GroupOf(9).ok());
}

TEST(StreamingServiceTest, SolverJobsDoNotChangeDecisions) {
  std::vector<uint64_t> fingerprints;
  for (int jobs : {1, 2, 4}) {
    StreamingServiceOptions options = SmallOptions();
    options.reconsolidation.advisor.solver_jobs = jobs;
    StreamingService service(options);
    std::vector<TenantSpec> specs;
    for (TenantId id = 0; id < 8; ++id) specs.push_back(MakeTenant(id, 2));
    ASSERT_TRUE(RegisterTenants(&service, 0, specs).ok());
    ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(kHour)).ok());
    ASSERT_TRUE(service.Ingest(MakeDeregisterEvent(kHour + 1, 2)).ok());
    ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(2 * kHour)).ok());
    fingerprints.push_back(service.DecisionFingerprint());
  }
  EXPECT_EQ(fingerprints[0], fingerprints[1]);
  EXPECT_EQ(fingerprints[0], fingerprints[2]);
}

TEST(StreamingServiceTest, DecisionCarriesPlannerAccounting) {
  const StreamingServiceOptions options = SmallOptions();
  StreamingService service(options);
  std::vector<TenantSpec> specs;
  for (TenantId id = 0; id < 60; ++id) specs.push_back(MakeTenant(id, 2));
  ASSERT_TRUE(RegisterTenants(&service, 0, specs).ok());
  ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(kHour)).ok());
  ASSERT_GT(service.current_plan().groups.size(), 4u);

  // Cycle 1: a stride-2 drift halves tenant 20's ~1/60 active ratio (well
  // past the 0.003 threshold) and tenants 11 and 12, grouped apart from it,
  // leave, so the re-solve sees one drift trigger, absorbers from the same
  // size class, and a seed with two stale members.
  ReconsolidationInput input;
  input.current_plan = service.current_plan();
  input.deregistered = {11, 12};
  ASSERT_TRUE(service.Ingest(MakeActivityDriftEvent(kHour + 1, 20, 2)).ok());
  ASSERT_TRUE(service.Ingest(MakeDeregisterEvent(kHour + 2, 11)).ok());
  ASSERT_TRUE(service.Ingest(MakeDeregisterEvent(kHour + 2, 12)).ok());
  const ActivityIndex activity =
      MakeActivityIndex(service.CurrentHistory(), HistoryGrid(options));
  ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(2 * kHour)).ok());
  const CycleDecision& decision = service.decisions().back();

  ReconsolidationOptions planner_options = options.reconsolidation;
  planner_options.advisor.sla_fraction = decision.sla_fraction;
  auto expected =
      ReconsolidationPlanner(planner_options).Plan(input, activity);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(decision.plan_fingerprint, PlanFingerprint(expected->plan));
  EXPECT_EQ(decision.drifted_groups, 1u);
  EXPECT_GT(decision.absorber_groups, 1u);
  EXPECT_EQ(decision.drifted_groups, expected->drifted_groups);
  EXPECT_EQ(decision.absorber_groups, expected->absorber_groups);
  EXPECT_EQ(decision.warm_groups_repaired,
            expected->grouping.warm_groups_repaired);
  EXPECT_EQ(decision.warm_members_evicted,
            expected->grouping.warm_members_evicted);
  EXPECT_EQ(decision.warm_members_missing,
            expected->grouping.warm_members_missing);

  // The accounting is not part of the decision's canonical stream.
  CycleDecision altered = decision;
  altered.drifted_groups += 1;
  altered.absorber_groups += 2;
  altered.warm_groups_repaired += 3;
  altered.warm_members_evicted += 4;
  altered.warm_members_missing += 5;
  EXPECT_EQ(CycleDecisionStream(altered), CycleDecisionStream(decision));
}

TEST(StreamingServiceTest, CachedActivityTracksEveryHistoryChange) {
  // Every event that rewrites a tenant's history — registration, a stride-2
  // then a stride-3 drift, a same-batch register-then-deregister cancel —
  // must leave the cycle planning from exactly the activity a fresh index
  // over CurrentHistory() derives.
  const StreamingServiceOptions options = SmallOptions();
  StreamingService service(options);
  std::vector<TenantSpec> specs;
  for (TenantId id = 0; id < 40; ++id) specs.push_back(MakeTenant(id, 2));
  ASSERT_TRUE(RegisterTenants(&service, 0, specs).ok());
  ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(kHour)).ok());

  ReconsolidationInput input;
  input.current_plan = service.current_plan();
  input.new_tenants = {MakeTenant(50, 2)};
  ASSERT_TRUE(RegisterTenants(&service, kHour + 1, input.new_tenants).ok());
  ASSERT_TRUE(service.Ingest(MakeActivityDriftEvent(kHour + 2, 20, 2)).ok());
  ASSERT_TRUE(service.Ingest(MakeActivityDriftEvent(kHour + 3, 20, 3)).ok());
  ASSERT_TRUE(RegisterTenants(&service, kHour + 4, {MakeTenant(51, 2)}).ok());
  ASSERT_TRUE(service.Ingest(MakeDeregisterEvent(kHour + 5, 51)).ok());
  const ActivityIndex activity =
      MakeActivityIndex(service.CurrentHistory(), HistoryGrid(options));
  ASSERT_TRUE(service.Ingest(MakeCycleMarkEvent(2 * kHour)).ok());
  const CycleDecision& decision = service.decisions().back();

  ReconsolidationOptions planner_options = options.reconsolidation;
  planner_options.advisor.sla_fraction = decision.sla_fraction;
  auto expected =
      ReconsolidationPlanner(planner_options).Plan(input, activity);
  ASSERT_TRUE(expected.ok()) << expected.status();
  EXPECT_EQ(decision.plan_fingerprint, PlanFingerprint(expected->plan));
  EXPECT_EQ(decision.drifted_groups, 1u);
  EXPECT_EQ(decision.drifted_groups, expected->drifted_groups);
  std::vector<GroupId> resolved = expected->resolved_groups;
  std::sort(resolved.begin(), resolved.end());
  EXPECT_EQ(decision.resolved_groups, resolved);
  EXPECT_TRUE(service.current_plan().GroupOf(50).ok());
  EXPECT_FALSE(service.current_plan().GroupOf(51).ok());
}

TEST(StreamingServiceTest, TickRequiresClock) {
  StreamingService service(SmallOptions());
  auto ran = service.Tick();
  ASSERT_FALSE(ran.ok());
  EXPECT_EQ(ran.status().code(), StatusCode::kFailedPrecondition);
}

TEST(StreamingServiceTest, TickHonorsCyclePeriod) {
  StreamingService service(SmallOptions());
  VirtualClock clock;
  service.AttachClock(&clock);
  ASSERT_TRUE(RegisterTenants(&service, 0, {MakeTenant(1, 2)}).ok());

  auto first = service.Tick();  // no cycle ran yet: fires immediately
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(*first);
  ASSERT_EQ(service.decisions().size(), 1u);

  auto too_soon = service.Tick();  // period not yet elapsed
  ASSERT_TRUE(too_soon.ok()) << too_soon.status();
  EXPECT_FALSE(*too_soon);

  clock.AdvanceTo(kHour);
  auto due = service.Tick();
  ASSERT_TRUE(due.ok()) << due.status();
  EXPECT_TRUE(*due);
  EXPECT_EQ(service.decisions().size(), 2u);
  EXPECT_EQ(service.decisions()[1].time, kHour);
}

}  // namespace
}  // namespace thrifty
