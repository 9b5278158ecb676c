// Randomized and directed tests for the shared-scan executor mode
// (PsExecutorMode::kSharedScan).
//
// Contract under test:
//  * Degeneracy: with all-distinct template ids every batch is a singleton,
//    so kSharedScan is byte-identical to kVirtualTime — same completion
//    stream, same max_concurrency, same busy time, same event count.
//  * Determinism: with heavy template collisions two kSharedScan runs of
//    the same script are byte-identical.
//  * Batching: co-resident same-template queries occupy one PS slot; the
//    leader pays the dedicated work, each joiner only its SharedJoinDelta,
//    appended past the batch's last finish tag (tags immutable, strictly
//    increasing). Batches close when their last member completes.
//  * Accounting: SimCostGauge's query-work vs slot-work split and the
//    batch-open/batch-join counters line up with the admissions made.
//
// Every randomized case derives its script from an id-keyed Rng fork, so a
// failure names the case id and replays deterministically.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "sim/engine.h"

namespace thrifty {
namespace {

QueryTemplate MakeTemplate(TemplateId id, double work_seconds_per_gb,
                           double serial = 0.0) {
  QueryTemplate t;
  t.id = id;
  // Appended piece by piece: `"q" + std::to_string(id)` draws a GCC
  // -Wrestrict false positive from the inlined string concatenation.
  t.name += 'q';
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

struct RunResult {
  std::vector<std::string> trace;
  uint64_t query_work = 0;
  uint64_t slot_work = 0;
  uint64_t batches = 0;
  uint64_t joins = 0;
  size_t completed = 0;
};

// Replays `script` against one instance and returns its observable trace
// plus the gauge's shared-work accounting. Post-op samples include the slot
// concurrency and the open-batch count, so the trace also pins the batch
// lifecycle, not just the completion stream.
RunResult RunScript(const Script& script, PsExecutorMode mode) {
  SimEngine engine;
  SimCostGauge gauge;
  engine.set_cost_gauge(&gauge);
  MppdbInstance instance(0, script.nodes, &engine, InstanceState::kOnline,
                         mode);
  for (const auto& [tenant, gb] : script.tenants) {
    instance.AddTenant(tenant, gb);
  }

  RunResult result;
  instance.set_completion_callback([&](const QueryCompletion& c) {
    std::ostringstream line;
    line << "done t=" << c.finish_time << " q=" << c.query_id
         << " tenant=" << c.tenant_id << " lat=" << c.MeasuredLatency()
         << " maxk=" << c.max_concurrency;
    result.trace.push_back(line.str());
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
      // The trace is the parity surface shared-off runs must match
      // byte-for-byte against kVirtualTime, so it records only
      // mode-portable state: open-batch counts (always zero under
      // kVirtualTime) are asserted through the gauge instead.
      std::ostringstream line;
      line << "op t=" << now << " k=" << instance.Concurrency()
           << " slots=" << instance.SlotConcurrency()
           << " failed=" << instance.failed_nodes();
      result.trace.push_back(line.str());
    });
  }
  engine.Run();

  std::ostringstream tail;
  tail << "end t=" << engine.now()
       << " completed=" << instance.completed_queries()
       << " busy=" << instance.busy_time()
       << " events=" << engine.events_processed();
  result.trace.push_back(tail.str());
  // Drained executors must have closed every batch — the busy-period rebase
  // in Submit depends on it.
  EXPECT_EQ(instance.shared_batches_open(), 0u);
  result.query_work = gauge.query_work_ms();
  result.slot_work = gauge.slot_work_ms();
  result.batches = gauge.shared_batches();
  result.joins = gauge.shared_joins();
  result.completed = instance.completed_queries();
  return result;
}

// Random script generator. `template_pool` = 0 gives every submission a
// unique template id (the degenerate all-singleton case); a small pool
// forces collisions and thus real batches.
Script RandomScript(Rng* rng, int template_pool) {
  Script script;
  script.nodes = static_cast<int>(rng->NextInt(1, 8));
  int num_tenants = static_cast<int>(rng->NextInt(1, 4));
  for (TenantId t = 1; t <= num_tenants; ++t) {
    script.tenants.push_back({t, 20.0 + 10.0 * rng->NextDouble() * t});
  }

  // Pooled templates must agree on the work profile wherever they collide
  // (one template id = one template), so pre-generate the pool.
  std::vector<QueryTemplate> pool;
  for (int i = 0; i < template_pool; ++i) {
    double work = 0.05 + 0.1 * static_cast<double>(rng->NextInt(1, 8));
    pool.push_back(MakeTemplate(i + 1, work, rng->NextBool(0.3) ? 0.1 : 0.0));
  }

  int num_ops = static_cast<int>(rng->NextInt(1, 40));
  SimTime t = 0;
  for (int i = 0; i < num_ops; ++i) {
    Op op;
    t += rng->NextInt(0, 3000);
    op.time = t;
    double roll = rng->NextDouble();
    if (roll < 0.8) {
      op.kind = OpKind::kSubmit;
      op.tenant = static_cast<TenantId>(rng->NextInt(1, num_tenants));
      if (template_pool > 0) {
        op.tmpl = pool[rng->NextBounded(pool.size())];
      } else {
        double work = rng->NextBool(0.5)
                          ? static_cast<double>(rng->NextInt(1, 10)) * 0.1
                          : 0.01 + rng->NextDouble() * 0.5;
        op.tmpl = MakeTemplate(static_cast<TemplateId>(i + 1), work,
                               rng->NextBool(0.3) ? 0.1 : 0.0);
      }
    } else if (roll < 0.92) {
      op.kind = OpKind::kFail;
    } else {
      op.kind = OpKind::kRepair;
    }
    script.ops.push_back(op);
  }
  return script;
}

TEST(SharedScanTest, AllDistinctTemplatesMatchVirtualTimeByteForByte) {
  constexpr uint64_t kCases = 250;
  for (uint64_t case_id = 0; case_id < kCases; ++case_id) {
    SCOPED_TRACE("case_id=" + std::to_string(case_id) +
                 " (replay: Rng(0x5CA1).Fork(case_id))");
    Rng rng = Rng(0x5CA1).Fork(case_id);
    Script script = RandomScript(&rng, /*template_pool=*/0);
    RunResult shared = RunScript(script, PsExecutorMode::kSharedScan);
    RunResult virt = RunScript(script, PsExecutorMode::kVirtualTime);
    EXPECT_EQ(shared.trace, virt.trace);
    // All-singleton batches: every admission opens a batch, none joins, and
    // every slot carries its query's full dedicated work.
    EXPECT_EQ(shared.joins, 0u);
    EXPECT_EQ(shared.query_work, shared.slot_work);
    EXPECT_EQ(virt.query_work, virt.slot_work);
    if (::testing::Test::HasFailure()) break;  // first failing case replays
  }
}

TEST(SharedScanTest, CollidingTemplatesReplayDeterministically) {
  constexpr uint64_t kCases = 250;
  uint64_t cases_with_joins = 0;
  for (uint64_t case_id = 0; case_id < kCases; ++case_id) {
    SCOPED_TRACE("case_id=" + std::to_string(case_id) +
                 " (replay: Rng(0xBA7C).Fork(case_id))");
    Rng rng = Rng(0xBA7C).Fork(case_id);
    Script script = RandomScript(&rng, /*template_pool=*/3);
    RunResult first = RunScript(script, PsExecutorMode::kSharedScan);
    RunResult second = RunScript(script, PsExecutorMode::kSharedScan);
    EXPECT_EQ(first.trace, second.trace);
    EXPECT_EQ(first.query_work, second.query_work);
    EXPECT_EQ(first.slot_work, second.slot_work);
    EXPECT_EQ(first.batches, second.batches);
    EXPECT_EQ(first.joins, second.joins);
    // A join never admits more slot work than the query's dedicated work.
    EXPECT_LE(first.slot_work, first.query_work);
    if (first.joins > 0) ++cases_with_joins;
    if (::testing::Test::HasFailure()) break;
  }
  // The pool is small enough that real batching must have happened.
  EXPECT_GT(cases_with_joins, kCases / 4);
}

TEST(SharedScanTest, IdenticalTemplateBatchCollapsesToOneSlot) {
  // k identical queries admitted at once: one batch, one slot, so the whole
  // batch finishes in roughly the dedicated latency plus the joiner deltas —
  // not k times the dedicated latency as under kVirtualTime.
  constexpr int kQueries = 8;
  const QueryTemplate tmpl = MakeTemplate(7, 1.0);  // 100 GB / 4n -> 25 s
  auto run = [&](PsExecutorMode mode, SimTime* makespan, int* peak_slots) {
    SimEngine engine;
    SimCostGauge gauge;
    engine.set_cost_gauge(&gauge);
    MppdbInstance instance(0, 4, &engine, InstanceState::kOnline, mode);
    instance.AddTenant(1, 100.0);
    *peak_slots = 0;
    for (int i = 0; i < kQueries; ++i) {
      QuerySubmission s;
      s.query_id = i;
      s.tenant_id = 1;
      s.template_id = tmpl.id;
      ASSERT_TRUE(instance.Submit(s, tmpl).ok());
      *peak_slots = std::max(*peak_slots, instance.SlotConcurrency());
    }
    if (mode == PsExecutorMode::kSharedScan) {
      EXPECT_EQ(gauge.shared_batches(), 1u);
      EXPECT_EQ(gauge.shared_joins(), static_cast<uint64_t>(kQueries - 1));
      EXPECT_GT(gauge.SharedWorkRatio(), 4.0);
      EXPECT_DOUBLE_EQ(gauge.SharedHitRate(),
                       static_cast<double>(kQueries - 1) / kQueries);
    }
    engine.Run();
    EXPECT_EQ(instance.completed_queries(),
              static_cast<size_t>(kQueries));
    *makespan = engine.now();
  };
  SimTime shared_makespan = 0, virtual_makespan = 0;
  int shared_peak = 0, virtual_peak = 0;
  run(PsExecutorMode::kSharedScan, &shared_makespan, &shared_peak);
  run(PsExecutorMode::kVirtualTime, &virtual_makespan, &virtual_peak);
  EXPECT_EQ(shared_peak, 1);
  EXPECT_EQ(virtual_peak, kQueries);
  // 8 x 25 s dedicated: virtual-time serves 200 s of work; the shared batch
  // serves 25 s + 7 small deltas. Require at least a 4x makespan win.
  EXPECT_LT(shared_makespan * 4, virtual_makespan);
}

TEST(SharedScanTest, MidFlightJoinerCatchesUpBehindBatchTail) {
  // Leader admitted alone; a joiner arrives mid-flight. The joiner must
  // finish after the leader by its catch-up delta served at the batch's
  // share — and an unrelated template claims a second slot, halving the
  // batch's service rate but never touching its tags.
  SimEngine engine;
  MppdbInstance instance(0, 4, &engine, InstanceState::kOnline,
                         PsExecutorMode::kSharedScan);
  instance.AddTenant(1, 100.0);
  const QueryTemplate shared_tmpl = MakeTemplate(1, 1.0);  // 25 s dedicated
  const QueryTemplate other_tmpl = MakeTemplate(2, 0.4);   // 10 s dedicated

  std::vector<QueryCompletion> done;
  instance.set_completion_callback(
      [&](const QueryCompletion& c) { done.push_back(c); });
  auto submit = [&](QueryId qid, const QueryTemplate& tmpl) {
    QuerySubmission s;
    s.query_id = qid;
    s.tenant_id = 1;
    s.template_id = tmpl.id;
    ASSERT_TRUE(instance.Submit(s, tmpl).ok());
  };

  engine.ScheduleAt(0, [&](SimTime) { submit(1, shared_tmpl); });
  engine.ScheduleAt(5'000, [&](SimTime) {
    submit(2, shared_tmpl);  // joins query 1's batch
    EXPECT_EQ(instance.Concurrency(), 2);
    EXPECT_EQ(instance.SlotConcurrency(), 1);
    EXPECT_EQ(instance.shared_batches_open(), 1u);
  });
  engine.ScheduleAt(10'000, [&](SimTime) {
    submit(3, other_tmpl);  // distinct template -> second slot
    EXPECT_EQ(instance.SlotConcurrency(), 2);
    EXPECT_EQ(instance.shared_batches_open(), 2u);
  });
  engine.Run();

  ASSERT_EQ(done.size(), 3u);
  SimTime leader_finish = 0, joiner_finish = 0;
  for (const auto& c : done) {
    if (c.query_id == 1) leader_finish = c.finish_time;
    if (c.query_id == 2) joiner_finish = c.finish_time;
  }
  // Joiner strictly trails its leader; the catch-up delta for Q1-like work
  // (serial 0 + 2% overhead on 25 s) is 500 ms of slot work, so at a <= 2
  // slot share the tail is bounded by ~1 s + rounding.
  EXPECT_GT(joiner_finish, leader_finish);
  EXPECT_LE(joiner_finish - leader_finish, 1'100);
  EXPECT_EQ(instance.shared_batches_open(), 0u);
}

TEST(SharedScanTest, LateArrivalAfterBatchCloseOpensFreshBatch) {
  // Same template, but the second query arrives after the first completed:
  // no in-flight batch to join, so it leads its own.
  SimEngine engine;
  SimCostGauge gauge;
  engine.set_cost_gauge(&gauge);
  MppdbInstance instance(0, 4, &engine, InstanceState::kOnline,
                         PsExecutorMode::kSharedScan);
  instance.AddTenant(1, 100.0);
  const QueryTemplate tmpl = MakeTemplate(1, 0.2);  // 5 s dedicated
  auto submit = [&](QueryId qid) {
    QuerySubmission s;
    s.query_id = qid;
    s.tenant_id = 1;
    s.template_id = tmpl.id;
    ASSERT_TRUE(instance.Submit(s, tmpl).ok());
  };
  engine.ScheduleAt(0, [&](SimTime) { submit(1); });
  engine.ScheduleAt(60'000, [&](SimTime) { submit(2); });
  engine.Run();
  EXPECT_EQ(instance.completed_queries(), 2u);
  EXPECT_EQ(gauge.shared_batches(), 2u);
  EXPECT_EQ(gauge.shared_joins(), 0u);
  EXPECT_EQ(gauge.query_work_ms(), gauge.slot_work_ms());
}

TEST(SharedScanTest, FailureMidBatchKeepsBatchConsistent) {
  // A node failure halves the speed factor while a 4-member batch is in
  // flight: tags are untouched, service just slows, the batch still drains
  // completely, and the run replays byte-identically.
  Script script;
  script.nodes = 2;
  script.tenants = {{1, 100.0}};
  const QueryTemplate tmpl = MakeTemplate(1, 1.0, 0.1);
  for (int i = 0; i < 4; ++i) {
    Op op;
    op.time = 1000 * i;
    op.tmpl = tmpl;
    script.ops.push_back(op);
  }
  Op fail;
  fail.time = 10'000;
  fail.kind = OpKind::kFail;
  script.ops.push_back(fail);
  Op repair;
  repair.time = 40'000;
  repair.kind = OpKind::kRepair;
  script.ops.push_back(repair);

  RunResult first = RunScript(script, PsExecutorMode::kSharedScan);
  RunResult second = RunScript(script, PsExecutorMode::kSharedScan);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.completed, 4u);
  EXPECT_EQ(first.batches, 1u);
  EXPECT_EQ(first.joins, 3u);
}

TEST(SharedScanTest, SharedJoinDeltaCostModel) {
  QueryTemplate tmpl = MakeTemplate(1, 1.0, 0.2);
  // Dedicated: 100 GB * 1 s/GB * (0.2 + 0.8/4) = 40 s on 4 nodes.
  EXPECT_EQ(tmpl.DedicatedLatency(100.0, 4), 40 * kSecond);
  // Join delta: dedicated * (serial 0.2 + overhead 0.02) = 8.8 s.
  EXPECT_EQ(tmpl.SharedJoinDelta(100.0, 4), 8'800);
  // The fraction clamps at 1: a fully serial template gains nothing.
  tmpl.serial_fraction = 1.0;
  EXPECT_EQ(tmpl.SharedJoinDelta(100.0, 4),
            tmpl.DedicatedLatency(100.0, 4));
  // Never below one tick.
  tmpl.serial_fraction = 0.0;
  tmpl.shared_overhead_fraction = 0.0;
  EXPECT_EQ(tmpl.SharedJoinDelta(0.0, 4), 1);
}

}  // namespace
}  // namespace thrifty
