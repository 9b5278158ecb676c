// Shared-scan batching sweep: how much effective work does
// PsExecutorMode::kSharedScan eliminate as same-template traffic skews?
//
// One 16-node instance hosting 8 tenants x 100 GB serves k resident
// queries whose templates are Zipf(theta)-sampled over the 22 TPC-H
// templates, in two waves (the second wave lands mid-flight, exercising
// joiner catch-up tags) with a node failure + repair in between. Every
// theta point runs twice — kVirtualTime and kSharedScan — on the same
// deterministic arrival script, and the bench reports per point:
//
//   * shared-scan hit rate (admissions merged into an in-flight batch),
//   * effective-work reduction (gauge query-work / slot-work) — the extra
//     consolidation effectiveness shared execution buys,
//   * SLA pass rate in both modes (latency <= the k-shared reference),
//   * makespan in both modes and both completion-stream fingerprints.
//
// Gates (exit 1 on failure):
//   1. Degeneracy: the theta=1 script remapped to all-distinct template
//      ids runs byte-identically (FNV-1a 64 stream fingerprint) under
//      kSharedScan and kVirtualTime — shared-off costs nothing.
//   2. At theta >= 1 the shared mode serves >= 1.5x fewer effective work
//      units (work ratio >= 1.5) with k = 256 residents (64 --smoke).
//   3. The shared mode's SLA pass rate is never below kVirtualTime's.
//
// Results land in BENCH_shared_scan.json. --smoke shrinks k for CI.

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/distributions.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/table_printer.h"
#include "mppdb/catalog.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "sim/cost_gauge.h"
#include "sim/engine.h"

namespace thrifty {
namespace {

struct Arrival {
  SimTime time = 0;
  TenantId tenant = 0;
  TemplateId template_id = 0;
};

// The deterministic arrival script for one theta point: two waves of
// Zipf-skewed template draws round-robined over the tenants, plus the
// failure/repair times. The script is a pure function of (seed, theta, k).
struct Scenario {
  std::vector<Arrival> arrivals;
  SimTime fail_at = 0;
  SimTime repair_at = 0;
};

Scenario BuildScenario(const QueryCatalog& catalog, uint64_t seed,
                       double theta, int residents, int tenants) {
  const std::vector<TemplateId>& tpch =
      catalog.SuiteTemplates(QuerySuite::kTpch);
  ZipfDistribution zipf(tpch.size(), theta);
  Rng rng = Rng(seed).Fork(static_cast<uint64_t>(theta * 1000.0));

  Scenario s;
  // Wave 1: the resident population, staggered 100 ms apart so admissions
  // interleave with nothing in flight yet.
  for (int i = 0; i < residents; ++i) {
    Arrival a;
    a.time = 100 * i;
    a.tenant = i % tenants;
    a.template_id = tpch[zipf.Sample(&rng)];
    s.arrivals.push_back(a);
  }
  // Wave 2: half the population again, landing mid-flight while wave 1 is
  // still being served — these admissions hit open batches and take the
  // joiner catch-up path.
  const SimTime wave2 = 100 * residents + 20 * kSecond;
  for (int i = 0; i < residents / 2; ++i) {
    Arrival a;
    a.time = wave2 + 150 * i;
    a.tenant = (residents + i) % tenants;
    a.template_id = tpch[zipf.Sample(&rng)];
    s.arrivals.push_back(a);
  }
  s.fail_at = wave2 + 150 * (residents / 4);
  s.repair_at = s.fail_at + 60 * kSecond;
  return s;
}

struct RunStats {
  std::string stream;
  uint64_t fingerprint = 0;
  double hit_rate = 0;
  double work_ratio = 0;
  double sla_pass_rate = 0;
  SimTime makespan = 0;
  size_t completed = 0;
};

// Replays one scenario on a fresh instance in `mode`. The SLA reference for
// every query is its dedicated latency times the resident count — the
// latency a query of that template would see at full egalitarian load in
// kVirtualTime — so shared mode can only match or beat the pass rate.
RunStats RunScenario(const QueryCatalog& catalog, const Scenario& scenario,
                     PsExecutorMode mode, int residents, int tenants) {
  SimEngine engine;
  SimCostGauge gauge;
  engine.set_cost_gauge(&gauge);
  const int nodes = 16;
  MppdbInstance instance(0, nodes, &engine, InstanceState::kOnline, mode);
  const double data_gb = 100;
  for (TenantId t = 0; t < tenants; ++t) instance.AddTenant(t, data_gb);

  RunStats stats;
  size_t sla_met = 0;
  instance.set_completion_callback([&](const QueryCompletion& c) {
    stats.stream += "t=" + std::to_string(c.finish_time) +
                    ",q=" + std::to_string(c.query_id) +
                    ",k=" + std::to_string(c.max_concurrency) + ";";
    if (c.MeasuredLatency() <= c.reference_latency) ++sla_met;
    ++stats.completed;
  });

  QueryId next_id = 0;
  for (const Arrival& a : scenario.arrivals) {
    engine.ScheduleAt(a.time, [&, a](SimTime) {
      const QueryTemplate& tmpl = catalog.Get(a.template_id);
      QuerySubmission s;
      s.query_id = next_id++;
      s.tenant_id = a.tenant;
      s.template_id = a.template_id;
      s.reference_latency =
          tmpl.DedicatedLatency(data_gb, nodes) * residents;
      if (!instance.Submit(s, tmpl).ok()) std::exit(1);
    });
  }
  engine.ScheduleAt(scenario.fail_at,
                    [&](SimTime) { (void)instance.InjectNodeFailure(); });
  engine.ScheduleAt(scenario.repair_at,
                    [&](SimTime) { (void)instance.RepairNode(); });
  engine.Run();

  stats.stream += "completed=" + std::to_string(instance.completed_queries()) +
                  ",busy=" + std::to_string(instance.busy_time()) + ";";
  stats.fingerprint = Fnv1a64(stats.stream);
  stats.hit_rate = gauge.SharedHitRate();
  stats.work_ratio = gauge.SharedWorkRatio();
  stats.sla_pass_rate =
      stats.completed == 0
          ? 1.0
          : static_cast<double>(sla_met) / static_cast<double>(stats.completed);
  stats.makespan = engine.now();
  return stats;
}

// Degeneracy audit: the same arrival script with every arrival remapped to
// a distinct synthetic template (cost profile copied from its original), so
// every shared batch is a singleton. kSharedScan must then be byte-identical
// to kVirtualTime.
RunStats RunAllDistinct(const QueryCatalog& catalog, const Scenario& scenario,
                        PsExecutorMode mode, int residents, int tenants) {
  std::vector<QueryTemplate> distinct;
  distinct.reserve(scenario.arrivals.size());
  Scenario remapped = scenario;
  for (size_t i = 0; i < remapped.arrivals.size(); ++i) {
    QueryTemplate t = catalog.Get(remapped.arrivals[i].template_id);
    t.id = static_cast<TemplateId>(i);
    t.name = "distinct" + std::to_string(i);
    distinct.push_back(t);
    remapped.arrivals[i].template_id = t.id;
  }
  QueryCatalog distinct_catalog(std::move(distinct));
  return RunScenario(distinct_catalog, remapped, mode, residents, tenants);
}

}  // namespace
}  // namespace thrifty

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "shared_scan";
  bool smoke = false;
  BenchOptions options = ParseBenchArgs(
      argc, argv, bench_name, kSeedFlag,
      {SwitchFlag("--smoke", &smoke, "  64 residents instead of 256 (CI)")});
  BenchReport report(bench_name, options);

  QueryCatalog catalog = QueryCatalog::Default();
  const int residents = smoke ? 64 : 256;
  const int tenants = 8;
  const uint64_t seed = options.SeedOr(0x5C4A);
  const std::vector<double> thetas = {0.0, 0.5, 1.0, 1.5, 2.0};

  PrintBanner(
      "Shared-scan batching vs template skew",
      "One 16-node instance, " + std::to_string(residents) +
          " resident queries in two waves, templates Zipf(theta) over the\n"
          "22 TPC-H templates; node failure + repair mid-flight. Each theta\n"
          "runs on kVirtualTime and kSharedScan; work ratio = dedicated\n"
          "work admitted / slot work served." +
          std::string(smoke ? " [--smoke scale]" : ""));

  TablePrinter table({"theta", "hit rate", "work ratio", "SLA virt",
                      "SLA shared", "makespan virt (s)", "makespan shared (s)",
                      "fp virt", "fp shared"});
  bool sla_ok = true;
  bool work_ok = true;
  double peak_work_ratio = 0;
  for (double theta : thetas) {
    Scenario scenario =
        BuildScenario(catalog, seed, theta, residents, tenants);
    RunStats virt = RunScenario(catalog, scenario, PsExecutorMode::kVirtualTime,
                                residents, tenants);
    RunStats shared = RunScenario(catalog, scenario,
                                  PsExecutorMode::kSharedScan, residents,
                                  tenants);
    if (shared.sla_pass_rate + 1e-12 < virt.sla_pass_rate) sla_ok = false;
    if (theta >= 1.0 && shared.work_ratio < 1.5) work_ok = false;
    peak_work_ratio = std::max(peak_work_ratio, shared.work_ratio);
    table.AddRow({FormatDouble(theta, 1), FormatDouble(shared.hit_rate, 3),
                  FormatDouble(shared.work_ratio, 2) + "x",
                  FormatDouble(virt.sla_pass_rate, 4),
                  FormatDouble(shared.sla_pass_rate, 4),
                  FormatDouble(DurationToSeconds(virt.makespan), 1),
                  FormatDouble(DurationToSeconds(shared.makespan), 1),
                  Hex64(virt.fingerprint), Hex64(shared.fingerprint)});
    std::string suffix = "_theta" + FormatDouble(theta, 1);
    report.AddMetric("hit_rate" + suffix, shared.hit_rate);
    report.AddMetric("work_ratio" + suffix, shared.work_ratio);
    report.AddMetric("sla_virtual" + suffix, virt.sla_pass_rate);
    report.AddMetric("sla_shared" + suffix, shared.sla_pass_rate);
    report.AddMetric("makespan_virtual_s" + suffix,
                     DurationToSeconds(virt.makespan));
    report.AddMetric("makespan_shared_s" + suffix,
                     DurationToSeconds(shared.makespan));
  }
  table.Print(std::cout);

  // Gate 1: degeneracy — all-distinct templates make shared scan free.
  Scenario parity_scenario =
      BuildScenario(catalog, seed, 1.0, residents, tenants);
  RunStats parity_virtual = RunAllDistinct(
      catalog, parity_scenario, PsExecutorMode::kVirtualTime, residents,
      tenants);
  RunStats parity_shared = RunAllDistinct(
      catalog, parity_scenario, PsExecutorMode::kSharedScan, residents,
      tenants);
  const bool parity_ok =
      parity_virtual.stream == parity_shared.stream &&
      parity_virtual.fingerprint == parity_shared.fingerprint;
  std::cout << "\nShared-off parity (all-distinct templates): "
            << (parity_ok ? "byte-identical" : "MISMATCH") << " (fp "
            << Hex64(parity_shared.fingerprint) << ")\n";
  report.Gate("parity_ok", parity_ok,
              "kSharedScan with singleton batches byte-identical to "
              "kVirtualTime");
  report.Gate("", work_ok, "work ratio >= 1.5x at every theta >= 1");
  report.Gate("", sla_ok, "shared SLA pass rate never below virtual time's");

  report.SetResultsTable(table);
  report.AddText("parity_fingerprint", Hex64(parity_shared.fingerprint));
  report.AddMetric("peak_work_ratio", peak_work_ratio);
  report.AddMetric("resident_queries", residents);
  report.AddMetric("gates_passed", report.passed() ? 1 : 0);
  return report.Finish();
}
