// Property test for Guarantee 1 (§4.4): whatever the queries are —
// linear or non-linear scale-out, sequential ad-hoc or concurrent batches
// at any MPL — TDD meets the SLAs of up to A concurrently active tenants.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/sim_time.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/query_model.h"
#include "placement/deployment_plan.h"
#include "sim/engine.h"
#include "workload/tenant.h"

namespace thrifty {
namespace {

constexpr int kNodes = 4;
constexpr int kReplication = 3;

DeploymentPlan OneGroupPlan(int num_tenants) {
  DeploymentPlan plan;
  plan.replication_factor = kReplication;
  plan.sla_fraction = 0.999;
  GroupDeployment group;
  group.group_id = 0;
  for (TenantId id = 0; id < num_tenants; ++id) {
    TenantSpec spec;
    spec.id = id;
    spec.requested_nodes = kNodes;
    spec.data_gb = 100.0 * kNodes;
    spec.suite = QuerySuite::kTpch;
    group.tenants.push_back(spec);
  }
  group.cluster.mppdb_nodes = {kNodes, kNodes, kNodes};
  plan.groups.push_back(group);
  return plan;
}

// Drives one "slot" of activity: at most one tenant of its private subset
// is active at any time; each action is a batch of 1..3 queries (MPL > 1).
class SlotDriver {
 public:
  SlotDriver(ThriftyService* service, SimEngine* engine,
             const QueryCatalog* catalog, std::vector<TenantId> tenants,
             SimTime horizon, Rng rng)
      : service_(service),
        engine_(engine),
        catalog_(catalog),
        tenants_(std::move(tenants)),
        horizon_(horizon),
        rng_(rng) {}

  void Start() { Act(engine_->now()); }

  // Called by the test's completion hook for queries of this slot's
  // tenants.
  void OnQueryDone(SimTime now) {
    if (--outstanding_ == 0) {
      SimDuration gap = rng_.NextInt(1, 30) * kSecond;
      engine_->ScheduleAt(now + gap, [this](SimTime t) { Act(t); });
    }
  }

  bool OwnsTenant(TenantId tenant) const {
    for (TenantId t : tenants_) {
      if (t == tenant) return true;
    }
    return false;
  }

 private:
  void Act(SimTime now) {
    if (now >= horizon_) return;
    TenantId tenant = tenants_[rng_.NextBounded(tenants_.size())];
    int batch = static_cast<int>(rng_.NextInt(1, 3));
    outstanding_ = batch;
    for (int i = 0; i < batch; ++i) {
      TemplateId tmpl = catalog_->SampleFromSuite(QuerySuite::kTpch, &rng_);
      auto result = service_->SubmitQuery(tenant, tmpl);
      ASSERT_TRUE(result.ok()) << result.status();
    }
  }

  ThriftyService* service_;
  SimEngine* engine_;
  const QueryCatalog* catalog_;
  std::vector<TenantId> tenants_;
  SimTime horizon_;
  Rng rng_;
  int outstanding_ = 0;
};

class GuaranteeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GuaranteeTest, AtMostAActiveTenantsAlwaysMeetSla) {
  SimEngine engine;
  Cluster cluster(3 * kNodes, &engine);
  QueryCatalog catalog = QueryCatalog::Default();
  ServiceOptions options;
  options.replication_factor = kReplication;
  options.elastic_scaling = false;
  ThriftyService service(&engine, &cluster, &catalog, options);
  ASSERT_TRUE(service.Deploy(OneGroupPlan(9)).ok());

  // Three slots over disjoint tenant subsets: at most 3 = A tenants are
  // ever concurrently active.
  Rng rng(GetParam());
  const SimTime horizon = 6 * kHour;
  std::vector<std::unique_ptr<SlotDriver>> slots;
  for (int s = 0; s < 3; ++s) {
    std::vector<TenantId> subset = {static_cast<TenantId>(s * 3),
                                    static_cast<TenantId>(s * 3 + 1),
                                    static_cast<TenantId>(s * 3 + 2)};
    slots.push_back(std::make_unique<SlotDriver>(
        &service, &engine, &catalog, subset, horizon,
        rng.Fork(static_cast<uint64_t>(s) + 1)));
  }
  size_t violations = 0;
  double worst = 0;
  service.set_completion_hook([&](const QueryOutcome& outcome) {
    double normalized = outcome.NormalizedPerformance();
    worst = std::max(worst, normalized);
    if (normalized > 1.001) ++violations;
    for (auto& slot : slots) {
      if (slot->OwnsTenant(outcome.real.tenant_id)) {
        slot->OnQueryDone(outcome.real.finish_time);
        break;
      }
    }
  });
  for (auto& slot : slots) slot->Start();
  engine.Run();

  EXPECT_GT(service.metrics().completed, 50u);
  EXPECT_EQ(violations, 0u) << "worst normalized performance " << worst;
  EXPECT_DOUBLE_EQ(service.metrics().SlaAttainment(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuaranteeTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(GuaranteeViolationTest, MoreThanAActiveTenantsCanViolate) {
  // Sanity check of the metric itself: 4 tenants submitting together on a
  // 3-MPPDB group must overflow MPPDB_0 and miss the SLA.
  SimEngine engine;
  Cluster cluster(3 * kNodes, &engine);
  QueryCatalog catalog = QueryCatalog::Default();
  ServiceOptions options;
  options.replication_factor = kReplication;
  options.elastic_scaling = false;
  ThriftyService service(&engine, &cluster, &catalog, options);
  ASSERT_TRUE(service.Deploy(OneGroupPlan(4)).ok());

  size_t violations = 0;
  service.set_completion_hook([&](const QueryOutcome& outcome) {
    if (outcome.NormalizedPerformance() > 1.001) ++violations;
  });
  TemplateId q1 = *catalog.FindByName("TPCH-Q1");
  for (TenantId t = 0; t < 4; ++t) {
    ASSERT_TRUE(service.SubmitQuery(t, q1).ok());
  }
  engine.Run();
  EXPECT_EQ(service.metrics().completed, 4u);
  // Two queries shared MPPDB_0: both ran ~2x slower than isolated.
  EXPECT_EQ(violations, 2u);
  EXPECT_DOUBLE_EQ(service.metrics().SlaAttainment(), 0.5);
}

}  // namespace
}  // namespace thrifty
