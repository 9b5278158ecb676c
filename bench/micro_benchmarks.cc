// Micro-benchmarks (google-benchmark) for Thrifty's hot paths: the
// level-set candidate evaluation that dominates tenant grouping, Algorithm 1
// routing decisions, processor-sharing instance event handling, the event
// queue's cancel-and-reschedule churn, the RT-TTP monitor, and epoch
// discretization.

#include <cstdint>
#include <memory>
#include <vector>

#include <benchmark/benchmark.h>

#include "activity/activity_vector.h"
#include "activity/epoch.h"
#include "activity/level_set.h"
#include "activity/streamed_epochizer.h"
#include "common/bitmap.h"
#include "common/interval.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/simd.h"
#include "common/status.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "routing/query_router.h"
#include "scaling/rt_ttp_monitor.h"
#include "sim/engine.h"
#include "sim/event_queue.h"

namespace thrifty {
namespace {

std::vector<uint64_t> RandomWords(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> out(n);
  for (auto& w : out) w = rng.Next();
  return out;
}

std::vector<ActivityVector> MakeOfficeHourTenants(size_t count,
                                                  size_t num_epochs,
                                                  uint64_t seed) {
  Rng rng(seed);
  std::vector<ActivityVector> out;
  for (TenantId id = 0; id < static_cast<TenantId>(count); ++id) {
    DynamicBitmap bits(num_epochs);
    size_t day = num_epochs / 14 == 0 ? num_epochs : num_epochs / 14;
    for (size_t d = 0; d + day <= num_epochs; d += day) {
      size_t start = d + rng.NextBounded(day / 2 + 1);
      bits.SetRange(start, start + day / 10 + rng.NextBounded(day / 10 + 1));
    }
    out.push_back(ActivityVector::FromBitmap(id, bits));
  }
  return out;
}

void BM_LevelSetEvaluateAdd(benchmark::State& state) {
  size_t num_epochs = static_cast<size_t>(state.range(0));
  auto tenants = MakeOfficeHourTenants(20, num_epochs, 7);
  GroupLevelSet group(num_epochs);
  for (size_t i = 0; i < 10; ++i) group.Add(tenants[i]);
  GroupLevelSet::EvalScratch scratch;
  size_t next = 10;
  for (auto _ : state) {
    group.EvaluateAddInto(tenants[next], &scratch);
    benchmark::DoNotOptimize(scratch.pops.data());
    benchmark::ClobberMemory();
    next = next == 19 ? 10 : next + 1;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LevelSetEvaluateAdd)->Arg(10'000)->Arg(120'000)->Arg(1'200'000);

void BM_LevelSetAddRemove(benchmark::State& state) {
  size_t num_epochs = static_cast<size_t>(state.range(0));
  auto tenants = MakeOfficeHourTenants(12, num_epochs, 11);
  GroupLevelSet group(num_epochs);
  for (size_t i = 0; i < 11; ++i) group.Add(tenants[i]);
  for (auto _ : state) {
    group.Add(tenants[11]);
    benchmark::DoNotOptimize(group.Ttp(3));
    Status st = group.Remove(tenants[11]);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LevelSetAddRemove)->Arg(120'000);

// SIMD kernel primitives (common/simd.h) at the span lengths the level-set
// argmin streams. Labels report the resolved dispatch target; run with
// THRIFTY_FORCE_SCALAR=1 to benchmark the scalar reference instead.
void BM_SpanPopcount(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto w = RandomWords(n, 21);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::SpanPopcount(w.data(), n));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * n * 8));
  state.SetLabel(simd::TargetName());
}
BENCHMARK(BM_SpanPopcount)->Arg(8)->Arg(64)->Arg(1024);

void BM_FusedAndPopcount(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto a = RandomWords(n, 22);
  auto b = RandomWords(n, 23);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::AndPopcount(a.data(), b.data(), n));
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * n * 2 * 8));
  state.SetLabel(simd::TargetName());
}
BENCHMARK(BM_FusedAndPopcount)->Arg(8)->Arg(64)->Arg(1024);

void BM_ArgminCandidate(benchmark::State& state) {
  // One pruned candidate evaluation against an incumbent, the inner loop of
  // FindBestCandidate: plan build + top-down level kernels, allocation-free
  // after the first iteration.
  size_t num_epochs = static_cast<size_t>(state.range(0)) * 64;
  auto tenants = MakeOfficeHourTenants(20, num_epochs, 7);
  GroupLevelSet group(num_epochs);
  for (size_t i = 0; i < 10; ++i) group.Add(tenants[i]);
  std::vector<size_t> incumbent = group.EvaluateAdd(tenants[10]);
  GroupLevelSet::ColumnLookup lookup;
  lookup.Sync(group);
  GroupLevelSet::EvalScratch scratch;
  size_t next = 11;
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.EvaluateAddCompare(tenants[next], incumbent,
                                                      lookup, &scratch));
    next = next == 19 ? 11 : next + 1;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetLabel(simd::TargetName());
}
BENCHMARK(BM_ArgminCandidate)->Arg(8)->Arg(64)->Arg(1024);

void BM_RoutingDecision(benchmark::State& state) {
  SimEngine engine;
  std::vector<std::unique_ptr<MppdbInstance>> instances;
  std::vector<MppdbInstance*> raw;
  for (InstanceId id = 0; id < 3; ++id) {
    instances.push_back(std::make_unique<MppdbInstance>(id, 4, &engine));
    raw.push_back(instances.back().get());
  }
  GroupRouter router(0, raw);
  TenantId tenant = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.Route(tenant));
    tenant = (tenant + 1) % 30;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RoutingDecision);

void BM_ProcessorSharingChurn(benchmark::State& state) {
  // Submit/complete churn with the given steady concurrency.
  int concurrency = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SimEngine engine;
    MppdbInstance instance(0, 8, &engine);
    instance.AddTenant(0, 100);
    QueryTemplate tmpl;
    tmpl.id = 0;
    tmpl.work_seconds_per_gb = 0.4;
    state.ResumeTiming();
    for (int q = 0; q < 200; ++q) {
      QuerySubmission s;
      s.query_id = q;
      s.tenant_id = 0;
      benchmark::DoNotOptimize(instance.Submit(s, tmpl));
      if (instance.Concurrency() >= concurrency) {
        engine.Step();  // drive one completion
      }
    }
    engine.Run();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 200);
}
BENCHMARK(BM_ProcessorSharingChurn)->Arg(1)->Arg(4)->Arg(16);

void BM_InstanceChurn(benchmark::State& state) {
  // High-concurrency churn, the regime the virtual-time executor targets:
  // `resident` long queries pin the concurrency while short queries arrive
  // and complete; the arg is the resident count, so 64 vs 256 shows the
  // O(log k) per-event cost.
  int resident = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    SimEngine engine;
    MppdbInstance instance(0, 8, &engine);
    instance.AddTenant(0, 100);
    QueryTemplate long_tmpl;
    long_tmpl.id = 0;
    long_tmpl.work_seconds_per_gb = 800.0;
    QueryTemplate short_tmpl;
    short_tmpl.id = 1;
    short_tmpl.work_seconds_per_gb = 0.004;
    QueryId next = 0;
    state.ResumeTiming();
    for (int q = 0; q < resident; ++q) {
      QuerySubmission s;
      s.query_id = next++;
      s.tenant_id = 0;
      benchmark::DoNotOptimize(instance.Submit(s, long_tmpl));
    }
    for (int q = 0; q < 400; ++q) {
      QuerySubmission s;
      s.query_id = next++;
      s.tenant_id = 0;
      benchmark::DoNotOptimize(instance.Submit(s, short_tmpl));
      while (instance.Concurrency() > resident) {
        engine.Step();  // drive completions at full concurrency
      }
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 400);
}
BENCHMARK(BM_InstanceChurn)->Arg(64)->Arg(256);

void BM_StreamedEpochize(benchmark::State& state) {
  // 2000 random intervals over 14 days straight to sparse words: finer
  // grids only cost output words.
  Rng rng(13);
  IntervalSet set;
  for (int i = 0; i < 2000; ++i) {
    SimTime begin = rng.NextInt(0, 14 * kDay - kHour);
    set.Add(begin, begin + rng.NextInt(kSecond, kHour));
  }
  EpochConfig epochs{state.range(0) * kSecond, 0, 14 * kDay};
  for (auto _ : state) {
    benchmark::DoNotOptimize(EpochizeIntervals(0, set, epochs));
  }
}
BENCHMARK(BM_StreamedEpochize)->Arg(10)->Arg(1);

void BM_RtTtpUpdateAndQuery(benchmark::State& state) {
  RtTtpMonitor monitor(3, 24 * kHour);
  SimTime now = 0;
  int count = 0;
  Rng rng(17);
  for (auto _ : state) {
    now += static_cast<SimTime>(rng.NextInt(1, 60)) * kSecond;
    count = static_cast<int>(rng.NextInt(0, 6));
    monitor.OnActiveCountChange(now, count);
    benchmark::DoNotOptimize(monitor.RtTtp(now));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RtTtpUpdateAndQuery);

void BM_EventQueueCancelChurn(benchmark::State& state) {
  // The executor's re-arm pattern: each of `live` instances keeps one
  // pending completion and replaces it (cancel, then schedule) on every
  // admission; every fourth step fires the earliest completion, which
  // re-arms its instance, so the live count stays at `live`.
  struct Churn {
    EventQueue queue;
    Rng rng{23};
    SimTime now = 0;
    std::vector<EventId> pending;
    void Arm(size_t i) {
      pending[i] = queue.Schedule(now + rng.NextInt(1, kHour),
                                  [this, i](SimTime) { Arm(i); });
    }
  };
  const size_t live = static_cast<size_t>(state.range(0));
  Churn churn;
  churn.pending.resize(live);
  for (size_t i = 0; i < live; ++i) churn.Arm(i);
  uint64_t step = 0;
  for (auto _ : state) {
    const size_t i = churn.rng.NextBounded(live);
    churn.queue.Cancel(churn.pending[i]);
    churn.Arm(i);
    if (++step % 4 == 0) {
      SimTime t;
      EventCallback cb = churn.queue.Pop(&t);
      churn.now = t;
      cb(t);
    }
  }
  benchmark::DoNotOptimize(churn.queue.NextTime());
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueCancelChurn)->Arg(2048);

}  // namespace
}  // namespace thrifty

BENCHMARK_MAIN();
