// Randomized equivalence harness for the virtual-time processor-sharing
// executor: MppdbInstance (finish-tag min-heap) and the
// DenseExecutor test oracle (O(k) linear sweep, historical max_concurrency
// write-back) must emit byte-identical (finish_time, query_id,
// max_concurrency) completion streams and agree on every derived observable
// (busy time, active-tenant counts, engine events processed) over arbitrary
// interleavings of arrivals, completions, node failures and repairs. Every
// randomized case derives its script from an id-keyed Rng fork, so a
// failure names the case id and replays deterministically.
//
// The Fig 1.1 scenarios are pinned here as well: the panel grid and a
// 256-resident churn point with node failure and repair run on both
// executors, and a fig7_4-style ThriftyService replay runs on the heap;
// each completion stream's FNV-1a fingerprint is fixed.

#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/table_printer.h"
#include "core/deployment_advisor.h"
#include "core/service.h"
#include "mppdb/catalog.h"
#include "mppdb/cluster.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "oracles/dense_executor.h"
#include "sim/cost_gauge.h"
#include "sim/engine.h"
#include "workload/log_generator.h"
#include "workload/tenant_population.h"

namespace thrifty {
namespace {

QueryTemplate MakeTemplate(TemplateId id, double work_seconds_per_gb,
                           double serial = 0.0) {
  QueryTemplate t;
  t.id = id;
  t.name = "q";
  t.name += std::to_string(id);
  t.work_seconds_per_gb = work_seconds_per_gb;
  t.serial_fraction = serial;
  return t;
}

enum class OpKind { kSubmit, kFail, kRepair };

struct Op {
  SimTime time = 0;
  OpKind kind = OpKind::kSubmit;
  TenantId tenant = 1;
  QueryTemplate tmpl;
};

struct Script {
  int nodes = 4;
  std::vector<std::pair<TenantId, double>> tenants;  // (id, data_gb)
  std::vector<Op> ops;
};

// Replays `script` against one `Executor` (MppdbInstance or DenseExecutor)
// and returns a textual trace of every observable: completion stream lines
// (in callback order) interleaved with post-op samples. Two executors are
// equivalent iff their traces match byte for byte.
template <typename Executor>
std::vector<std::string> RunScript(const Script& script) {
  SimEngine engine;
  Executor instance(0, script.nodes, &engine);
  for (const auto& [tenant, gb] : script.tenants) {
    instance.AddTenant(tenant, gb);
  }

  std::vector<std::string> trace;
  instance.set_completion_callback([&](const QueryCompletion& c) {
    std::ostringstream line;
    line << "done t=" << c.finish_time << " q=" << c.query_id
         << " tenant=" << c.tenant_id << " lat=" << c.MeasuredLatency()
         << " maxk=" << c.max_concurrency;
    trace.push_back(line.str());
  });

  QueryId next_query_id = 100;
  for (const Op& op : script.ops) {
    engine.ScheduleAt(op.time, [&, op](SimTime now) {
      switch (op.kind) {
        case OpKind::kSubmit: {
          QuerySubmission s;
          s.query_id = next_query_id++;
          s.tenant_id = op.tenant;
          s.template_id = op.tmpl.id;
          (void)instance.Submit(s, op.tmpl);
          break;
        }
        case OpKind::kFail:
          (void)instance.InjectNodeFailure();
          break;
        case OpKind::kRepair:
          (void)instance.RepairNode();
          break;
      }
      std::ostringstream line;
      line << "op t=" << now << " k=" << instance.Concurrency()
           << " active=" << instance.ActiveTenantCount()
           << " failed=" << instance.failed_nodes()
           << " free=" << instance.IsFree();
      for (const auto& [tenant, gb] : script.tenants) {
        line << " s" << tenant << "=" << instance.IsServingTenant(tenant);
      }
      trace.push_back(line.str());
    });
  }
  engine.Run();

  std::ostringstream tail;
  tail << "end t=" << engine.now() << " completed="
       << instance.completed_queries() << " busy=" << instance.busy_time()
       << " events=" << engine.events_processed();
  trace.push_back(tail.str());
  return trace;
}

void ExpectModesEquivalent(const Script& script) {
  EXPECT_EQ(RunScript<MppdbInstance>(script), RunScript<DenseExecutor>(script));
}

Script RandomScript(Rng* rng) {
  Script script;
  script.nodes = static_cast<int>(rng->NextInt(1, 8));
  int num_tenants = static_cast<int>(rng->NextInt(1, 4));
  for (TenantId t = 1; t <= num_tenants; ++t) {
    script.tenants.push_back({t, 20.0 + 10.0 * rng->NextDouble() * t});
  }

  int num_ops = static_cast<int>(rng->NextInt(1, 40));
  SimTime t = 0;
  for (int i = 0; i < num_ops; ++i) {
    Op op;
    // Dense arrival spacing (including zero gaps, so ops collide with each
    // other and with in-flight completion instants).
    t += rng->NextInt(0, 3000);
    op.time = t;
    double roll = rng->NextDouble();
    if (roll < 0.75) {
      op.kind = OpKind::kSubmit;
      op.tenant = static_cast<TenantId>(rng->NextInt(1, num_tenants));
      // Mix of round and awkward work sizes; non-dyadic shares (k=3,5,...)
      // are what stress the floating-point equivalence.
      double work = rng->NextBool(0.5)
                        ? static_cast<double>(rng->NextInt(1, 10)) * 0.1
                        : 0.01 + rng->NextDouble() * 0.5;
      op.tmpl = MakeTemplate(static_cast<TemplateId>(i + 1), work,
                             rng->NextBool(0.3) ? 0.1 : 0.0);
    } else if (roll < 0.9) {
      op.kind = OpKind::kFail;
    } else {
      op.kind = OpKind::kRepair;
    }
    script.ops.push_back(op);
  }
  return script;
}

TEST(VirtualTimeEquivalenceTest, RandomizedInterleavings) {
  constexpr uint64_t kCases = 400;
  for (uint64_t case_id = 0; case_id < kCases; ++case_id) {
    SCOPED_TRACE("case_id=" + std::to_string(case_id) +
                 " (replay: Rng(0x9EAF).Fork(case_id))");
    Rng rng = Rng(0x9EAF).Fork(case_id);
    Script script = RandomScript(&rng);
    ExpectModesEquivalent(script);
    if (::testing::Test::HasFailure()) break;  // first failing case replays
  }
}

TEST(VirtualTimeEquivalenceTest, SimultaneousCompletions) {
  // Eight identical queries admitted at once finish on one completion event;
  // both modes must emit them in admission order at the same tick.
  Script script;
  script.nodes = 4;
  script.tenants = {{1, 100.0}, {2, 100.0}};
  for (int i = 0; i < 8; ++i) {
    Op op;
    op.time = 0;
    op.tenant = (i % 2) + 1;
    op.tmpl = MakeTemplate(1, 1.0);  // 100 GB / 4 nodes -> 25 s dedicated
    script.ops.push_back(op);
  }
  ExpectModesEquivalent(script);
}

TEST(VirtualTimeEquivalenceTest, SpeedFactorChangeMidFlight) {
  // Failure then repair while queries are in flight: the virtual clock rate
  // changes twice; tags never change.
  Script script;
  script.nodes = 4;
  script.tenants = {{1, 100.0}};
  Op a;
  a.time = 0;
  a.tmpl = MakeTemplate(1, 1.0);
  Op b = a;
  b.time = 5'000;
  b.tmpl = MakeTemplate(2, 0.37);
  Op fail;
  fail.time = 10'000;
  fail.kind = OpKind::kFail;
  Op fail2 = fail;
  fail2.time = 12'000;
  Op repair;
  repair.time = 30'000;
  repair.kind = OpKind::kRepair;
  script.ops = {a, b, fail, fail2, repair};
  ExpectModesEquivalent(script);
}

TEST(VirtualTimeEquivalenceTest, SubmitAtCompletionInstant) {
  // 100 GB / 4 nodes at 1.0 s/GB completes at exactly t=25s; a submission
  // scheduled for the same tick lands while the completion event is queued.
  Script script;
  script.nodes = 4;
  script.tenants = {{1, 100.0}, {2, 100.0}};
  Op a;
  a.time = 0;
  a.tenant = 1;
  a.tmpl = MakeTemplate(1, 1.0);
  Op b;
  b.time = 25 * kSecond;
  b.tenant = 2;
  b.tmpl = MakeTemplate(2, 0.5);
  Op c = b;  // two submissions on the completion tick
  c.tenant = 1;
  c.tmpl = MakeTemplate(3, 0.25);
  script.ops = {a, b, c};
  ExpectModesEquivalent(script);
}

TEST(VirtualTimeEquivalenceTest, EpsilonResidueFromNonDyadicShares) {
  // Three-way sharing on a degraded 3-node instance: shares of 1/3 and 2/9
  // leave sub-epsilon floating-point residue at the ceil'd completion tick.
  // Both modes must classify the residue identically.
  Script script;
  script.nodes = 3;
  script.tenants = {{1, 90.0}, {2, 90.0}, {3, 90.0}};
  Op fail;
  fail.time = 0;
  fail.kind = OpKind::kFail;
  script.ops.push_back(fail);
  for (int i = 0; i < 3; ++i) {
    Op op;
    op.time = 1000 * i;
    op.tenant = i + 1;
    op.tmpl = MakeTemplate(i + 1, 0.1 + 0.07 * i);
    script.ops.push_back(op);
  }
  ExpectModesEquivalent(script);
}

// Staggered arrivals and departures with hand-computed high-water marks.
template <typename Executor>
void ExpectHandComputedMaxConcurrency() {
  SimEngine engine;
  Executor instance(0, 4, &engine);
  instance.AddTenant(1, 100.0);
  std::vector<QueryCompletion> done;
  instance.set_completion_callback(
      [&](const QueryCompletion& c) { done.push_back(c); });

  auto submit = [&](QueryId qid, double work) {
    QuerySubmission s;
    s.query_id = qid;
    s.tenant_id = 1;
    QueryTemplate t = MakeTemplate(1, work);
    ASSERT_TRUE(instance.Submit(s, t).ok());
  };
  // q1 alone (k=1), then q2 joins (k=2), q3 joins (k=3); q3 is short and
  // leaves; then q4 joins after the peak (k back to 3).
  engine.ScheduleAt(0, [&](SimTime) { submit(1, 4.0); });          // 100s
  engine.ScheduleAt(10'000, [&](SimTime) { submit(2, 4.0); });
  engine.ScheduleAt(20'000, [&](SimTime) { submit(3, 0.1); });     // 2.5s
  engine.ScheduleAt(40'000, [&](SimTime) { submit(4, 0.1); });
  engine.Run();

  ASSERT_EQ(done.size(), 4u);
  std::unordered_map<QueryId, int> maxk;
  for (const auto& c : done) maxk[c.query_id] = c.max_concurrency;
  EXPECT_EQ(maxk[1], 3);  // saw the k=3 peak while q3 was in flight
  EXPECT_EQ(maxk[2], 3);
  EXPECT_EQ(maxk[3], 3);
  EXPECT_EQ(maxk[4], 3);  // admitted into k=3 (q1, q2 still running)
}

TEST(VirtualTimeEquivalenceTest, MaxConcurrencyMatchesWritebackSemantics) {
  // The heap's monotone peak deque against the oracle's O(k) write-back.
  {
    SCOPED_TRACE("virtual-time heap");
    ExpectHandComputedMaxConcurrency<MppdbInstance>();
  }
  {
    SCOPED_TRACE("dense oracle");
    ExpectHandComputedMaxConcurrency<DenseExecutor>();
  }
}

// High concurrency on one instance; returns records touched per event.
template <typename Executor>
double TouchedPerEventAtK128() {
  SimEngine engine;
  SimCostGauge gauge;
  engine.set_cost_gauge(&gauge);
  Executor instance(0, 4, &engine);
  instance.AddTenant(1, 100.0);
  for (int i = 0; i < 128; ++i) {
    engine.ScheduleAt(10 * i, [&, i](SimTime) {
      QuerySubmission s;
      s.query_id = i;
      s.tenant_id = 1;
      QueryTemplate t = MakeTemplate(1, 0.5 + 0.01 * (i % 7));
      ASSERT_TRUE(instance.Submit(s, t).ok());
    });
  }
  engine.Run();
  EXPECT_EQ(instance.completed_queries(), 128u);
  EXPECT_EQ(gauge.peak_running_set(), 128u);
  return gauge.TouchedPerEvent();
}

TEST(VirtualTimeEquivalenceTest, CostGaugeSeparatesModes) {
  // The dense sweep touches O(k) records per event, the heap O(log k); the
  // gauge must show at least a 4x gap at k = 128.
  double dense = TouchedPerEventAtK128<DenseExecutor>();
  double virt = TouchedPerEventAtK128<MppdbInstance>();
  EXPECT_GT(dense, 4.0 * virt) << "dense=" << dense << " virtual=" << virt;
}

// --- Fig 1.1 scenarios --------------------------------------------------

void AppendCompletion(std::string* stream, const QueryCompletion& c) {
  *stream += "t=" + std::to_string(c.finish_time) +
             ",q=" + std::to_string(c.query_id) +
             ",k=" + std::to_string(c.max_concurrency) + ";";
}

// One Fig 1.1 panel cell: `tenants` copies of `tmpl` on a `nodes`-node
// instance, each tenant holding 100 GB, submitted one after another or all
// at once.
template <typename Executor>
void RunPanelCell(const QueryTemplate& tmpl, int nodes, int tenants,
                  bool concurrent, std::string* stream) {
  SimEngine engine;
  Executor instance(0, nodes, &engine);
  for (TenantId t = 0; t < tenants; ++t) instance.AddTenant(t, 100);
  instance.set_completion_callback(
      [&](const QueryCompletion& c) { AppendCompletion(stream, c); });
  for (TenantId t = 0; t < tenants; ++t) {
    QuerySubmission s;
    s.query_id = t;
    s.tenant_id = t;
    EXPECT_TRUE(instance.Submit(s, tmpl).ok());
    if (!concurrent) engine.Run();  // finish before the next tenant submits
  }
  engine.Run();
}

// Every panel (a)/(c) cell for Q1 and Q19, then the panel (b) points.
template <typename Executor>
std::string PanelGridStream(const QueryCatalog& catalog) {
  std::string stream;
  for (const char* name : {"TPCH-Q1", "TPCH-Q19"}) {
    const QueryTemplate& tmpl = catalog.Get(*catalog.FindByName(name));
    stream += std::string("panel=") + name + ";";
    for (int nodes : {1, 2, 4, 8, 16, 32}) {
      for (int tenants : {1, 2, 4}) {
        for (bool concurrent : {false, true}) {
          RunPanelCell<Executor>(tmpl, nodes, tenants, concurrent, &stream);
        }
      }
    }
  }
  const QueryTemplate& q1 = catalog.Get(*catalog.FindByName("TPCH-Q1"));
  stream += "panel=b;";
  RunPanelCell<Executor>(q1, 2, 1, false, &stream);
  RunPanelCell<Executor>(q1, 6, 1, false, &stream);
  RunPanelCell<Executor>(q1, 6, 2, true, &stream);
  return stream;
}

// High-concurrency churn: `resident` long queries pin the concurrency while
// 96 short queries arrive and complete under processor sharing, with two
// node failures and one repair mid-churn.
template <typename Executor>
std::string ChurnStream(int resident) {
  const int churners = 96;
  SimEngine engine;
  Executor instance(0, 8, &engine);
  for (TenantId t = 0; t < 4; ++t) instance.AddTenant(t, 100);
  std::string stream;
  instance.set_completion_callback(
      [&](const QueryCompletion& c) { AppendCompletion(&stream, c); });

  QueryId next_id = 0;
  auto submit = [&](TenantId tenant, const QueryTemplate& tmpl) {
    QuerySubmission s;
    s.query_id = next_id++;
    s.tenant_id = tenant;
    s.template_id = tmpl.id;
    EXPECT_TRUE(instance.Submit(s, tmpl).ok());
  };
  // 100 GB on 8 nodes at 8.0 s/GB -> 100 s dedicated each.
  const QueryTemplate long_tmpl = MakeTemplate(1, 8.0);
  for (int i = 0; i < resident; ++i) {
    engine.ScheduleAt(10 * i, [&, i](SimTime) { submit(i % 4, long_tmpl); });
  }
  const SimTime churn_start = 10 * resident + kSecond;
  for (int i = 0; i < churners; ++i) {
    const QueryTemplate tmpl = MakeTemplate(2 + i, 0.004 + 0.0007 * (i % 5));
    engine.ScheduleAt(churn_start + 4 * kSecond * i,
                      [&, tmpl](SimTime) { submit(0, tmpl); });
  }
  const SimTime mid = churn_start + 4 * kSecond * (churners / 3);
  engine.ScheduleAt(mid, [&](SimTime) { (void)instance.InjectNodeFailure(); });
  engine.ScheduleAt(mid + 30 * kSecond,
                    [&](SimTime) { (void)instance.InjectNodeFailure(); });
  engine.ScheduleAt(mid + 90 * kSecond,
                    [&](SimTime) { (void)instance.RepairNode(); });
  engine.Run();
  stream += "completed=" + std::to_string(instance.completed_queries()) +
            ",busy=" + std::to_string(instance.busy_time()) + ";";
  return stream;
}

TEST(VirtualTimeEquivalenceTest, Fig11PanelGridStreamIsPinned) {
  QueryCatalog catalog = QueryCatalog::Default();
  const std::string heap = PanelGridStream<MppdbInstance>(catalog);
  EXPECT_EQ(heap, PanelGridStream<DenseExecutor>(catalog));
  EXPECT_EQ(Fnv1a64(heap), 0xde91183817eb73e4ULL);
}

TEST(VirtualTimeEquivalenceTest, ChurnWithFailureStreamIsPinned) {
  const std::string heap = ChurnStream<MppdbInstance>(256);
  EXPECT_EQ(heap, ChurnStream<DenseExecutor>(256));
  EXPECT_EQ(Fnv1a64(heap), 0x616092873dace162ULL);
}

TEST(VirtualTimeEquivalenceTest, ServiceReplayStreamIsPinned) {
  // A fig7_4-style workload: 12 generated tenants over 3 days, advised into
  // an R = 3 plan and replayed through the full ThriftyService (cluster and
  // SLA shadow instances) with two node failures mid-replay.
  const QueryCatalog catalog = QueryCatalog::Default();
  const uint64_t seed = 1101;
  SessionLibrary library(&catalog, {2, 4}, /*sessions_per_class=*/5,
                         Rng(seed));
  PopulationOptions pop_options;
  pop_options.node_sizes = {2, 4};
  Rng pop_rng = Rng(seed).Fork(1);
  auto tenants = GenerateTenantPopulation(12, pop_options, &pop_rng);
  ASSERT_TRUE(tenants.ok());
  LogComposerOptions composer_options;
  composer_options.horizon_days = 3;
  LogComposer composer(&library, composer_options);
  Rng compose_rng = Rng(seed).Fork(2);
  auto logs = composer.Compose(&*tenants, &compose_rng);
  ASSERT_TRUE(logs.ok());
  AdvisorOptions advisor_options;
  advisor_options.replication_factor = 3;
  advisor_options.sla_fraction = 0.99;
  advisor_options.epoch_size = 30 * kSecond;
  auto advised = DeploymentAdvisor(advisor_options)
                     .Advise(*tenants, *logs, 0, composer.horizon_end());
  ASSERT_TRUE(advised.ok());

  SimEngine engine;
  Cluster cluster(static_cast<int>(advised->plan.TotalNodesUsed()), &engine);
  ServiceOptions options;
  options.replication_factor = 3;
  options.sla_fraction = 0.99;
  options.elastic_scaling = false;
  ThriftyService service(&engine, &cluster, &catalog, options);
  ASSERT_TRUE(service.Deploy(advised->plan).ok());
  std::string stream;
  service.set_completion_hook([&](const QueryOutcome& outcome) {
    stream += "t=" + std::to_string(outcome.real.finish_time) +
              ",q=" + std::to_string(outcome.real.query_id) +
              ",i=" + std::to_string(outcome.real.instance_id) +
              ",lat=" + std::to_string(outcome.real.MeasuredLatency()) +
              ",iso=" + std::to_string(outcome.isolated_latency) + ";";
  });
  ASSERT_TRUE(service.ScheduleLogReplay(*logs).ok());
  engine.ScheduleAt(6 * kHour,
                    [&](SimTime) { (void)cluster.InjectNodeFailure(0); });
  engine.ScheduleAt(30 * kHour,
                    [&](SimTime) { (void)cluster.InjectNodeFailure(1); });
  engine.Run();
  stream += "completed=" + std::to_string(service.metrics().completed) +
            ",sla=" + FormatDouble(service.metrics().SlaAttainment(), 6) + ";";
  EXPECT_EQ(Fnv1a64(stream), 0x8ad365c34ac34d6dULL);
}

}  // namespace
}  // namespace thrifty
