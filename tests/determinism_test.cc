// Reproducibility properties: every layer of the stack must be bit-exact
// across repeated runs with the same seeds — experiments in EXPERIMENTS.md
// are single runs, so this is what makes them meaningful.

#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "activity/activity_vector.h"
#include "activity/epoch.h"
#include "activity/streamed_epochizer.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "core/deployment_advisor.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "placement/ffd.h"
#include "placement/problem.h"
#include "placement/two_step.h"
#include "routing/query_router.h"
#include "sim/cost_gauge.h"
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "workload/log_generator.h"
#include "workload/tenant.h"
#include "workload/tenant_population.h"

namespace thrifty {
namespace {

TEST(DeterminismTest, EndToEndServiceRunIsBitExact) {
  auto run_once = [](uint64_t seed) {
    QueryCatalog catalog = QueryCatalog::Default();
    Rng rng(seed);
    SessionLibrary library(&catalog, {2}, 4, rng.Fork(1));
    PopulationOptions pop;
    pop.node_sizes = {2};
    Rng pop_rng = rng.Fork(2);
    auto tenants = *GenerateTenantPopulation(8, pop, &pop_rng);
    LogComposerOptions composer_options;
    composer_options.horizon_days = 3;
    LogComposer composer(&library, composer_options);
    Rng compose_rng = rng.Fork(3);
    auto logs = *composer.Compose(&tenants, &compose_rng);
    AdvisorOptions advisor_options;
    advisor_options.replication_factor = 2;
    advisor_options.sla_fraction = 0.99;
    DeploymentAdvisor advisor(advisor_options);
    auto advice = *advisor.Advise(tenants, logs, 0, composer.horizon_end());

    SimEngine engine;
    Cluster cluster(static_cast<int>(advice.plan.TotalNodesUsed()), &engine);
    ServiceOptions service_options;
    service_options.replication_factor = 2;
    service_options.sla_fraction = 0.99;
    service_options.elastic_scaling = false;
    ThriftyService service(&engine, &cluster, &catalog, service_options);
    EXPECT_TRUE(service.Deploy(advice.plan).ok());
    EXPECT_TRUE(service.ScheduleLogReplay(logs).ok());
    engine.Run();
    return std::tuple<size_t, size_t, double, size_t>(
        service.metrics().completed, service.metrics().sla_met,
        service.metrics().normalized_performance.sum(),
        engine.events_processed());
  };
  auto a = run_once(777);
  auto b = run_once(777);
  EXPECT_EQ(a, b);
  auto c = run_once(778);
  EXPECT_NE(std::get<3>(a), 0u);
  // A different seed almost surely changes the event count.
  EXPECT_NE(a, c);
}

// The simulator's work on a fixed toy replay is a pure function of the
// inputs, so it is pinned exactly: events fired by the engine, and the
// executor's admissions, completion events and touched query records. The
// replay runs with elastic scaling on (at least one scale-up happens) and
// one node failure mid-replay. How the event queue stores events is free to
// change; which events fire, and when, is not.
TEST(DeterminismTest, SimWorkCountersArePinned) {
  QueryCatalog catalog = QueryCatalog::Default();
  Rng rng(4711);
  SessionLibrary library(&catalog, {2, 4}, 4, rng.Fork(1));
  PopulationOptions pop;
  pop.node_sizes = {2, 4};
  Rng pop_rng = rng.Fork(2);
  auto tenants = *GenerateTenantPopulation(16, pop, &pop_rng);
  LogComposerOptions composer_options;
  composer_options.horizon_days = 3;
  LogComposer composer(&library, composer_options);
  Rng compose_rng = rng.Fork(3);
  auto logs = *composer.Compose(&tenants, &compose_rng);
  // The plan is advised at a looser P than the service enforces, so the
  // run-time RT-TTP dips below P and elastic scaling acts.
  AdvisorOptions advisor_options;
  advisor_options.replication_factor = 2;
  advisor_options.sla_fraction = 0.9;
  auto advice = *DeploymentAdvisor(advisor_options)
                     .Advise(tenants, logs, 0, composer.horizon_end());

  SimEngine engine;
  SimCostGauge gauge;
  engine.set_cost_gauge(&gauge);
  Cluster cluster(static_cast<int>(advice.plan.TotalNodesUsed() +
                                   TotalRequestedNodes(tenants)),
                  &engine);
  ServiceOptions service_options;
  service_options.replication_factor = 2;
  service_options.sla_fraction = 0.99;
  service_options.elastic_scaling = true;
  service_options.scaling.window = 6 * kHour;
  service_options.scaling.warmup = 6 * kHour;
  ThriftyService service(&engine, &cluster, &catalog, service_options);
  ASSERT_TRUE(service.Deploy(advice.plan).ok());
  ASSERT_TRUE(service.ScheduleLogReplay(logs).ok());
  auto router =
      service.router()->RouterForGroup(advice.plan.groups[0].group_id);
  ASSERT_TRUE(router.ok());
  const InstanceId target = (*router)->mppdbs()[0]->id();
  bool failed = false;
  engine.ScheduleAt(composer.horizon_end() / 2, [&](SimTime) {
    failed = cluster.InjectNodeFailure(target).ok();
  });
  // The scaler's periodic checks never run out, so stop after a drain.
  engine.RunUntil(composer.horizon_end() + 12 * kHour);

  EXPECT_TRUE(failed);
  ASSERT_NE(service.scaler(), nullptr);
  EXPECT_EQ(service.scaler()->events().size(), 1u);
  EXPECT_EQ(service.metrics().completed, 10015u);
  EXPECT_EQ(engine.events_processed(), 28328u);
  EXPECT_EQ(gauge.submits(), 20030u);
  EXPECT_EQ(gauge.completion_events(), 17372u);
  EXPECT_EQ(gauge.queries_touched(), 108939u);
}

TEST(DeterminismTest, SolversAreDeterministic) {
  QueryCatalog catalog = QueryCatalog::Default();
  Rng rng(31337);
  SessionLibrary library(&catalog, {2, 4}, 4, rng.Fork(1));
  PopulationOptions pop;
  pop.node_sizes = {2, 4};
  Rng pop_rng = rng.Fork(2);
  auto tenants = *GenerateTenantPopulation(30, pop, &pop_rng);
  LogComposerOptions composer_options;
  composer_options.horizon_days = 4;
  LogComposer composer(&library, composer_options);
  Rng compose_rng = rng.Fork(3);
  auto activity = *composer.ComposeActivity(&tenants, &compose_rng);
  EpochConfig epochs{30 * kSecond, 0, composer.horizon_end()};
  std::vector<ActivityVector> vectors;
  for (size_t i = 0; i < tenants.size(); ++i) {
    vectors.push_back(EpochizeIntervals(tenants[i].id, activity[i], epochs));
  }
  auto problem = *MakePackingProblem(tenants, vectors, 3, 0.999);
  auto two_step_a = *SolveTwoStep(problem);
  auto two_step_b = *SolveTwoStep(problem);
  ASSERT_EQ(two_step_a.groups.size(), two_step_b.groups.size());
  for (size_t g = 0; g < two_step_a.groups.size(); ++g) {
    EXPECT_EQ(two_step_a.groups[g].tenant_ids,
              two_step_b.groups[g].tenant_ids);
  }
  auto ffd_a = *SolveFfd(problem);
  auto ffd_b = *SolveFfd(problem);
  ASSERT_EQ(ffd_a.groups.size(), ffd_b.groups.size());
  for (size_t g = 0; g < ffd_a.groups.size(); ++g) {
    EXPECT_EQ(ffd_a.groups[g].tenant_ids, ffd_b.groups[g].tenant_ids);
  }
}

// Randomized model check: the cancellable event queue agrees with a
// reference implementation under arbitrary schedule/cancel/pop interleaving.
// Cancels hit live ids, fired or cancelled ids, and ids whose slot a later
// event has reused; every pop must return exactly the reference's event.
TEST(DeterminismTest, EventQueueMatchesReferenceModel) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue queue;
    // Reference: live events ordered by (time, id), plus every id ever
    // scheduled that has since fired or been cancelled.
    std::set<std::pair<SimTime, EventId>> live;
    std::map<EventId, SimTime> live_time;
    std::vector<EventId> dead;
    EventId popped = kInvalidEventId;
    for (int op = 0; op < 2000; ++op) {
      double u = rng.NextDouble();
      if (u < 0.45) {
        SimTime t = rng.NextInt(0, 50);
        auto id = std::make_shared<EventId>(kInvalidEventId);
        *id = queue.Schedule(t, [&popped, id](SimTime) { popped = *id; });
        ASSERT_TRUE(live_time.emplace(*id, t).second);
        live.emplace(t, *id);
      } else if (u < 0.60 && !live.empty()) {
        // Cancel a live id.
        auto it = live_time.begin();
        std::advance(it, static_cast<long>(rng.NextBounded(live_time.size())));
        const EventId id = it->first;
        queue.Cancel(id);
        live.erase({it->second, id});
        live_time.erase(it);
        dead.push_back(id);
      } else if (u < 0.75 && !dead.empty()) {
        // Cancel a fired or cancelled id; its slot may hold a live event.
        queue.Cancel(dead[rng.NextBounded(dead.size())]);
      } else if (!live.empty()) {
        SimTime t;
        popped = kInvalidEventId;
        queue.Pop(&t)(t);
        const auto [ref_time, ref_id] = *live.begin();
        ASSERT_EQ(t, ref_time) << "trial " << trial << " op " << op;
        ASSERT_EQ(popped, ref_id) << "trial " << trial << " op " << op;
        live.erase(live.begin());
        live_time.erase(ref_id);
        dead.push_back(ref_id);
      }
      ASSERT_EQ(queue.LiveCount(), live.size());
      ASSERT_EQ(queue.NextTime(),
                live.empty() ? kNeverTime : live.begin()->first);
    }
  }
}

}  // namespace
}  // namespace thrifty
