// Property tests for the processor-sharing executor and Algorithm-1
// routing: invariants that must hold for any workload, swept over node
// counts and random schedules.

#include <algorithm>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "mppdb/catalog.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "routing/query_router.h"
#include "sim/engine.h"

namespace thrifty {
namespace {

QueryTemplate MakeTemplate(double work, double serial = 0.0) {
  QueryTemplate t;
  t.id = 0;
  t.work_seconds_per_gb = work;
  t.serial_fraction = serial;
  return t;
}

class PsNodesSweep : public ::testing::TestWithParam<int> {};

// Work conservation: k equal queries submitted together all finish at
// exactly k x dedicated latency, for any node count.
TEST_P(PsNodesSweep, WorkConservationUnderSimultaneousLoad) {
  int nodes = GetParam();
  for (int k : {1, 2, 3, 7}) {
    SimEngine engine;
    MppdbInstance instance(0, nodes, &engine);
    instance.AddTenant(0, 100);
    QueryTemplate tmpl = MakeTemplate(1.0);
    SimDuration dedicated = tmpl.DedicatedLatency(100, nodes);
    std::vector<SimTime> finishes;
    instance.set_completion_callback([&](const QueryCompletion& c) {
      finishes.push_back(c.finish_time);
    });
    for (int q = 0; q < k; ++q) {
      QuerySubmission s;
      s.query_id = q;
      s.tenant_id = 0;
      ASSERT_TRUE(instance.Submit(s, tmpl).ok());
    }
    engine.Run();
    ASSERT_EQ(finishes.size(), static_cast<size_t>(k));
    for (SimTime f : finishes) {
      EXPECT_NEAR(static_cast<double>(f),
                  static_cast<double>(k) * static_cast<double>(dedicated),
                  2.0 * k)
          << "nodes " << nodes << " k " << k;
    }
  }
}

// Monotonicity: adding load never makes any existing query finish earlier.
TEST_P(PsNodesSweep, AddedLoadNeverSpeedsAnyoneUp) {
  int nodes = GetParam();
  Rng rng(static_cast<uint64_t>(nodes) * 101 + 7);
  for (int trial = 0; trial < 5; ++trial) {
    // Baseline schedule of 6 queries at random times/works, then the same
    // schedule plus 3 extra queries.
    struct Arrival {
      SimTime at;
      double work;
    };
    std::vector<Arrival> base;
    for (int q = 0; q < 6; ++q) {
      base.push_back({rng.NextInt(0, 100) * kSecond,
                      0.5 + rng.NextDouble() * 2.0});
    }
    auto run = [&](bool extra) {
      SimEngine engine;
      MppdbInstance instance(0, nodes, &engine);
      instance.AddTenant(0, 100);
      std::vector<SimTime> finishes(base.size(), 0);
      instance.set_completion_callback([&](const QueryCompletion& c) {
        if (c.query_id < static_cast<QueryId>(base.size())) {
          finishes[static_cast<size_t>(c.query_id)] = c.finish_time;
        }
      });
      for (size_t q = 0; q < base.size(); ++q) {
        engine.ScheduleAt(base[q].at, [&, q](SimTime) {
          QuerySubmission s;
          s.query_id = static_cast<QueryId>(q);
          s.tenant_id = 0;
          QueryTemplate tmpl = MakeTemplate(base[q].work);
          ASSERT_TRUE(instance.Submit(s, tmpl).ok());
        });
      }
      if (extra) {
        for (int e = 0; e < 3; ++e) {
          SimTime at = rng.NextInt(0, 100) * kSecond;  // consumed either way
          engine.ScheduleAt(at, [&, e](SimTime) {
            QuerySubmission s;
            s.query_id = 100 + e;
            s.tenant_id = 0;
            QueryTemplate tmpl = MakeTemplate(1.0);
            ASSERT_TRUE(instance.Submit(s, tmpl).ok());
          });
        }
      }
      engine.Run();
      return finishes;
    };
    // Fork the rng so both runs consume identical randomness for `base`.
    Rng saved = rng;
    auto baseline = run(false);
    rng = saved;
    auto loaded = run(true);
    for (size_t q = 0; q < base.size(); ++q) {
      EXPECT_GE(loaded[q], baseline[q]) << "trial " << trial << " q " << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, PsNodesSweep,
                         ::testing::Values(1, 2, 4, 8, 32));

// Routing property: a query is only ever routed for concurrent processing
// (overflow) when every MPPDB of the group is genuinely busy.
TEST(RoutingPropertyTest, OverflowOnlyWhenAllBusy) {
  Rng rng(404);
  for (int trial = 0; trial < 10; ++trial) {
    SimEngine engine;
    std::vector<std::unique_ptr<MppdbInstance>> instances;
    std::vector<MppdbInstance*> raw;
    for (InstanceId id = 0; id < 3; ++id) {
      instances.push_back(std::make_unique<MppdbInstance>(id, 4, &engine));
      for (TenantId t = 0; t < 8; ++t) instances.back()->AddTenant(t, 100);
      raw.push_back(instances.back().get());
    }
    GroupRouter router(0, raw);
    QueryId next_id = 0;
    for (int step = 0; step < 120; ++step) {
      engine.RunUntil(engine.now() + rng.NextInt(1, 30) * kSecond);
      TenantId tenant = static_cast<TenantId>(rng.NextBounded(8));
      bool all_busy = true;
      bool serving_tenant = false;
      for (MppdbInstance* m : raw) {
        all_busy &= !m->IsFree();
        serving_tenant |= m->IsServingTenant(tenant);
      }
      auto decision = router.Route(tenant);
      ASSERT_TRUE(decision.ok());
      if (decision->kind == RouteKind::kOverflow) {
        EXPECT_TRUE(all_busy) << "overflow with a free MPPDB available";
      }
      if (serving_tenant) {
        EXPECT_EQ(decision->kind, RouteKind::kTenantAffinity);
        EXPECT_TRUE(decision->instance->IsServingTenant(tenant));
      }
      QuerySubmission s;
      s.query_id = next_id++;
      s.tenant_id = tenant;
      QueryTemplate tmpl = MakeTemplate(0.2 + rng.NextDouble());
      ASSERT_TRUE(decision->instance->Submit(s, tmpl).ok());
    }
    engine.Run();
  }
}

// Exclusive service: while at most one query runs per instance-sized
// tenant, measured latency equals the dedicated latency exactly, even for
// non-linear templates.
TEST(RoutingPropertyTest, ExclusiveServiceIsExactForAnyTemplate) {
  QueryCatalog catalog = QueryCatalog::Default();
  SimEngine engine;
  MppdbInstance instance(0, 8, &engine);
  instance.AddTenant(0, 800);
  std::vector<std::pair<QueryId, SimDuration>> expected;
  std::vector<std::pair<QueryId, SimDuration>> measured;
  instance.set_completion_callback([&](const QueryCompletion& c) {
    measured.push_back({c.query_id, c.MeasuredLatency()});
  });
  QueryId next = 0;
  for (const auto& tmpl : catalog.templates()) {
    QuerySubmission s;
    s.query_id = next++;
    s.tenant_id = 0;
    ASSERT_TRUE(instance.Submit(s, tmpl).ok());
    expected.push_back({s.query_id, tmpl.DedicatedLatency(800, 8)});
    engine.Run();  // strictly sequential
  }
  ASSERT_EQ(measured.size(), expected.size());
  for (size_t i = 0; i < measured.size(); ++i) {
    EXPECT_EQ(measured[i], expected[i]);
  }
}

}  // namespace
}  // namespace thrifty
