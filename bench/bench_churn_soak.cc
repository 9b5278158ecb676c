// Churn soak: delta re-consolidation vs cold full solves over a sequence
// of register / de-register / activity-drift cycles, run through the
// streaming service (the live re-consolidation cycle of Chapter 3, §5.1).
//
// A tenant population is generated once. A live StreamingService on-boards
// the starting tenants and runs an initial cycle (the initial deployment).
// Each churn cycle then feeds the service a deterministic batch of events —
// a few de-registrations, registrations of fresh tenants from a reserve
// pool, and activity drifts of a few others (stride-2 thinning of their
// stored query history, halving their active ratio) — followed by a cycle
// mark. No SLA reports flow, so the controller holds P at its initial
// 99.9%. Two plans are compared every cycle:
//
//   - delta: the live service's cycle — the delta re-consolidation
//     planner with activity-drift screening and a warm-started re-solve. Untouched
//     groups are carried over byte-identically (ids kept); only affected
//     groups are re-grouped, with group repair keeping feasible seed
//     structure.
//   - cold: a fresh service on-boards the live service's registered
//     tenants with their current history and runs one cycle from an empty
//     plan — a full solve, as if no previous plan existed.
//
// The soak gates (exit 1 on failure):
//   - determinism: the live event log replayed at --solver-jobs 1, 2, and
//     4 reproduces the live run's decision fingerprint (which embeds every
//     cycle's plan fingerprint) byte for byte;
//   - effectiveness: per cycle, the delta plan's consolidation
//     effectiveness is within 1pp of the cold plan's;
//   - coverage: every registered tenant appears in the delta and cold
//     plans exactly once;
//   - speed (full scenario only): summed over cycles, the delta service
//     cycle is at least 10x faster than the cold one.
//
// Extra flag: --smoke shrinks the scenario to T=260 tenants, a 3-day
// horizon, and 2 cycles for CI; the speed ratio is reported but not gated
// there (sub-second timings are too noisy).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "service/streaming_service.h"

namespace thrifty {
namespace {

using bench::Workload;

/// One cycle's churn, as indices into the workload's tenant array. Built
/// up front from the bench seed only.
struct CycleChurn {
  std::vector<size_t> deregistered;
  std::vector<size_t> registered;
  std::vector<size_t> drifted;
};

struct SoakScenario {
  int initial_tenants = 1200;
  int cycles = 5;
  int churn_per_cycle = 6;  // tenants de-registered = registered per cycle
  int drift_per_cycle = 3;  // tenants whose activity drifts per cycle
  int horizon_days = 14;
};

std::vector<CycleChurn> BuildSchedule(const SoakScenario& scenario,
                                      uint64_t seed) {
  Rng rng = Rng(seed).Fork(0x5eed);
  std::vector<size_t> registered(
      static_cast<size_t>(scenario.initial_tenants));
  for (size_t i = 0; i < registered.size(); ++i) registered[i] = i;
  size_t next_fresh = registered.size();

  std::vector<CycleChurn> schedule(static_cast<size_t>(scenario.cycles));
  for (auto& cycle : schedule) {
    for (int j = 0; j < scenario.churn_per_cycle; ++j) {
      size_t pos = rng.NextBounded(registered.size());
      cycle.deregistered.push_back(registered[pos]);
      registered[pos] = registered.back();
      registered.pop_back();
    }
    for (int j = 0; j < scenario.churn_per_cycle; ++j) {
      cycle.registered.push_back(next_fresh);
      registered.push_back(next_fresh);
      ++next_fresh;
    }
    std::unordered_set<size_t> chosen;
    while (chosen.size() < static_cast<size_t>(scenario.drift_per_cycle)) {
      size_t pos = rng.NextBounded(registered.size());
      if (chosen.insert(registered[pos]).second) {
        cycle.drifted.push_back(registered[pos]);
      }
    }
  }
  return schedule;
}

/// Registration event for a workload tenant: its spec plus one query log
/// entry per activity interval.
TenantEvent RegisterEvent(const Workload& workload, size_t index,
                          SimTime time) {
  std::vector<QueryLogEntry> entries;
  for (const auto& interval : workload.activity[index].intervals()) {
    entries.push_back({interval.begin, 0, interval.length(), -1});
  }
  return MakeRegisterEvent(time, workload.tenants[index], std::move(entries));
}

StreamingServiceOptions SoakServiceOptions(const Workload& workload,
                                       int solver_jobs) {
  StreamingServiceOptions options;  // R=3, P=99.9%, E=10s
  options.reconsolidation.advisor.solver_jobs = solver_jobs;
  // Per-tenant active ratios in this workload sit around 1-2%; a drift
  // (log thinning) halves a tenant's ratio, moving it by ~0.005-0.01.
  options.reconsolidation.activity_delta_threshold = 0.003;
  options.history_end = workload.horizon_end;
  return options;
}

/// The schedule only produces valid events, so a rejection is a bug.
void Ingest(StreamingService* service, TenantEvent event) {
  Status status = service->Ingest(std::move(event));
  if (!status.ok()) throw std::runtime_error(status.ToString());
}

/// Runs one service cycle; returns its wall time (planner solve plus the
/// service's history copy and plan bookkeeping).
double TimedCycle(StreamingService* service, SimTime time) {
  auto start = std::chrono::steady_clock::now();
  Ingest(service, MakeCycleMarkEvent(time));
  return bench::Seconds(start);
}

bool CoversExactly(const DeploymentPlan& plan,
                   const std::vector<TenantSpec>& specs) {
  std::unordered_map<TenantId, int> seen;
  for (const auto& group : plan.groups) {
    for (const auto& tenant : group.tenants) ++seen[tenant.id];
  }
  if (seen.size() != specs.size()) return false;
  for (const auto& spec : specs) {
    if (seen[spec.id] != 1) return false;
  }
  return true;
}

}  // namespace
}  // namespace thrifty

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "churn_soak";
  bool smoke = false;
  BenchOptions options = ParseBenchArgs(
      argc, argv, bench_name,
      {SwitchFlag("--smoke", &smoke,
                  "  T=260 tenants, 3-day horizon, 2 cycles (CI scale)")});
  BenchReport report(bench_name, options);

  SoakScenario scenario;
  if (smoke) {
    scenario.initial_tenants = 260;
    scenario.cycles = 2;
    scenario.churn_per_cycle = 5;
    scenario.drift_per_cycle = 3;
    scenario.horizon_days = 3;
  }

  QueryCatalog catalog = QueryCatalog::Default();
  ExperimentConfig config;
  config.seed = options.seed;
  config.solver_jobs = options.solver_jobs;
  config.horizon_days = scenario.horizon_days;
  // Reserve pool: enough fresh tenants for every cycle's registrations.
  config.num_tenants = scenario.initial_tenants +
                       scenario.cycles * scenario.churn_per_cycle;
  const Workload workload = GenerateWorkload(catalog, config);

  PrintBanner(
      "Churn soak: delta re-consolidation vs cold full solves",
      "T=" + std::to_string(scenario.initial_tenants) + " initial, " +
          std::to_string(scenario.cycles) + " cycles of " +
          std::to_string(scenario.churn_per_cycle) + " dereg + " +
          std::to_string(scenario.churn_per_cycle) + " new + " +
          std::to_string(scenario.drift_per_cycle) + " drifted, " +
          std::to_string(scenario.horizon_days) + "-day horizon." +
          (smoke ? " [--smoke scenario]" : ""));

  const std::vector<CycleChurn> schedule = BuildSchedule(scenario,
                                                         options.seed);
  const StreamingServiceOptions service_options =
      SoakServiceOptions(workload, options.solver_jobs);

  // Initial deployment: cycle 0 of the live service over the starting
  // population (the delta cycles below start from its plan).
  StreamingService live(service_options);
  for (size_t i = 0; i < static_cast<size_t>(scenario.initial_tenants); ++i) {
    Ingest(&live, RegisterEvent(workload, i, 0));
  }
  Ingest(&live, MakeCycleMarkEvent(0));

  bool covers = true;
  bool effectiveness_ok = true;
  double delta_total = 0;
  double cold_total = 0;
  std::string plan_stream;

  TablePrinter table({"cycle", "tenants", "untouched", "re-solved",
                      "drifted", "absorbers", "repaired", "evicted",
                      "missing", "delta eff", "cold eff"});
  TablePrinter timings({"cycle", "delta (s)", "cold (s)", "speedup"});
  for (size_t c = 0; c < schedule.size(); ++c) {
    const CycleChurn& churn = schedule[c];
    const SimTime time = static_cast<SimTime>(c + 1);
    for (size_t index : churn.deregistered) {
      Ingest(&live, MakeDeregisterEvent(time, workload.tenants[index].id));
    }
    for (size_t index : churn.registered) {
      Ingest(&live, RegisterEvent(workload, index, time));
    }
    for (size_t index : churn.drifted) {
      Ingest(&live,
             MakeActivityDriftEvent(time, workload.tenants[index].id, 2));
    }
    const double delta_seconds = TimedCycle(&live, time);
    const CycleDecision& d = live.decisions().back();
    const std::vector<TenantSpec> specs = live.RegisteredSpecs();
    const double delta_eff = live.current_plan().ConsolidationEffectiveness();
    plan_stream += CanonicalMembershipStream(live.current_plan());

    // Cold: a fresh service on-boards the same population with the same
    // (drift-thinned) history and solves it from an empty plan. Between
    // cycles the registered specs and the history are both id-ordered over
    // the same tenants.
    StreamingService cold(service_options);
    std::vector<TenantLog> history = live.CurrentHistory();
    for (size_t i = 0; i < specs.size(); ++i) {
      Ingest(&cold,
             MakeRegisterEvent(time, specs[i], std::move(history[i].entries)));
    }
    const double cold_seconds = TimedCycle(&cold, time);
    const double cold_eff = cold.current_plan().ConsolidationEffectiveness();

    const double delta_pp = (delta_eff - cold_eff) * 100;
    if (std::abs(delta_pp) > 1.0) effectiveness_ok = false;
    if (!CoversExactly(live.current_plan(), specs) ||
        !CoversExactly(cold.current_plan(), specs)) {
      covers = false;
    }
    delta_total += delta_seconds;
    cold_total += cold_seconds;

    const std::string n = std::to_string(c + 1);
    table.AddRow({n, std::to_string(specs.size()),
                  std::to_string(d.untouched_groups.size()),
                  std::to_string(d.resolved_groups.size()),
                  std::to_string(d.drifted_groups),
                  std::to_string(d.absorber_groups),
                  std::to_string(d.warm_groups_repaired),
                  std::to_string(d.warm_members_evicted),
                  std::to_string(d.warm_members_missing),
                  FormatPercent(delta_eff, 2), FormatPercent(cold_eff, 2)});
    timings.AddRow({n, FormatDouble(delta_seconds, 3),
                    FormatDouble(cold_seconds, 3),
                    FormatDouble(cold_seconds / std::max(delta_seconds, 1e-9),
                                 1)});
    report.AddMetric("delta_solve_seconds_c" + n, delta_seconds);
    report.AddMetric("cold_solve_seconds_c" + n, cold_seconds);
    report.AddMetric("delta_effectiveness_c" + n, delta_eff);
    report.AddMetric("cold_effectiveness_c" + n, cold_eff);
    report.AddMetric("eff_delta_pp_c" + n, delta_pp);
  }

  // Determinism: the recorded log replayed at each solver parallelism must
  // reproduce every cycle decision (plan fingerprints included).
  const std::string log = live.EncodeLog();
  bool deterministic = true;
  for (int jobs : {1, 2, 4}) {
    auto replay =
        StreamingService::Replay(log, SoakServiceOptions(workload, jobs));
    if (!replay.ok()) {
      std::cout << "replay (solver-jobs=" << jobs
                << ") failed: " << replay.status() << "\n";
      deterministic = false;
    } else if (replay->DecisionFingerprint() != live.DecisionFingerprint()) {
      deterministic = false;
    }
  }

  table.Print(std::cout);
  std::cout << "\nService cycle wall-clock (non-deterministic, excluded from "
               "the fingerprint):\n";
  timings.Print(std::cout);

  double speedup = cold_total / std::max(delta_total, 1e-9);
  bool speed_ok = smoke || speedup >= 10.0;
  std::cout << "\nTotal: delta " << FormatDouble(delta_total, 3)
            << " s vs cold " << FormatDouble(cold_total, 3) << " s -> "
            << FormatDouble(speedup, 1) << "x"
            << (smoke ? " (not gated in --smoke)" : " (gate: >= 10x)")
            << "\n";
  const std::string fp = Hex64(Fnv1a64(plan_stream));
  std::cout << "Delta plan fingerprint: " << fp
            << (deterministic ? " (replay identical at solver-jobs 1/2/4)"
                              : " (MISMATCH across solver-jobs!)")
            << "\n";

  report.SetResultsTable(table);
  report.AddText("delta_plan_fnv1a", fp);
  report.AddMetric("delta_solve_seconds_total", delta_total);
  report.AddMetric("cold_solve_seconds_total", cold_total);
  report.AddMetric("delta_speedup_x", speedup);
  std::cout << "\n";
  report.Gate("determinism_check_passed", deterministic,
              "delta decisions replay identically at solver-jobs 1/2/4");
  report.Gate("coverage_check_passed", covers,
              "every registered tenant placed exactly once");
  report.Gate("effectiveness_check_passed", effectiveness_ok,
              "delta effectiveness within 1pp of cold every cycle");
  report.Gate("speedup_check_passed", speed_ok,
              "delta speedup >= 10x over cold (full scale only)");
  report.AddMetric("cycles", static_cast<double>(scenario.cycles));
  return report.Finish();
}
