// Reproducibility properties: every layer of the stack must be bit-exact
// across repeated runs with the same seeds — experiments in EXPERIMENTS.md
// are single runs, so this is what makes them meaningful.

#include <map>
#include <tuple>

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
#include "sim/engine.h"
#include "sim/event_queue.h"
#include "workload/log_generator.h"
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
TEST(DeterminismTest, EventQueueMatchesReferenceModel) {
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    EventQueue queue;
    // Reference: map id -> (time, alive), fired order by (time, id).
    struct Ref {
      SimTime time;
      bool alive;
    };
    std::map<EventId, Ref> reference;
    for (int op = 0; op < 200; ++op) {
      double u = rng.NextDouble();
      if (u < 0.55) {
        SimTime t = rng.NextInt(0, 50);
        EventId id = queue.Schedule(t, [](SimTime) {});
        reference[id] = {t, true};
      } else if (u < 0.75 && !reference.empty()) {
        // Cancel a random known id (possibly already fired/cancelled).
        auto it = reference.begin();
        std::advance(it, static_cast<long>(
                             rng.NextBounded(reference.size())));
        queue.Cancel(it->first);
        it->second.alive = false;
      } else if (!queue.Empty()) {
        SimTime t;
        queue.Pop(&t);
        // Reference pop: earliest alive by (time, id).
        EventId best = 0;
        for (const auto& [id, ref] : reference) {
          if (!ref.alive) continue;
          if (best == 0 || ref.time < reference[best].time ||
              (ref.time == reference[best].time && id < best)) {
            best = id;
          }
        }
        ASSERT_NE(best, 0u);
        ASSERT_EQ(t, reference[best].time) << "trial " << trial;
        reference[best].alive = false;
      }
    }
    // Drain and compare live counts.
    size_t live = 0;
    for (const auto& [id, ref] : reference) live += ref.alive ? 1 : 0;
    EXPECT_EQ(queue.LiveCount(), live);
  }
}

}  // namespace
}  // namespace thrifty
