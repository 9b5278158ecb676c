// Churn soak: delta re-consolidation vs cold full solves over a sequence
// of register / de-register / activity-drift cycles.
//
// A tenant population is generated once; an initial deployment plan is
// advised over the starting tenants. Each cycle then deterministically
// de-registers a few tenants, registers fresh ones from a reserve pool,
// and drifts the activity of a few others (their query logs are thinned,
// halving their active ratio). Two planners process every cycle:
//
//   - delta: ReconsolidationPlanner with activity-drift screening and a
//     warm-started re-solve. Untouched groups are carried over
//     byte-identically (ids kept); only affected groups are re-grouped,
//     with group repair keeping feasible seed structure.
//   - cold: a full DeploymentAdvisor::Advise over the entire registered
//     population, as if no previous plan existed.
//
// The soak gates (exit 1 on failure):
//   - determinism: the delta pass's plan-membership fingerprint is
//     byte-identical at --solver-jobs 1, 2, and 4;
//   - effectiveness: per cycle, the delta plan's consolidation
//     effectiveness is within 1pp of the cold plan's;
//   - coverage: every registered tenant appears in the delta plan exactly
//     once;
//   - speed (full scenario only): summed over cycles, the delta re-solve
//     is at least 10x faster than the cold full solve.
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

namespace thrifty {
namespace {

using bench::Workload;

/// One cycle's churn, as indices into the workload's tenant array. Built
/// up front from the bench seed only, so every pass (delta at each
/// --solver-jobs value, cold) replays the identical schedule.
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

/// Builds a tenant's query log from its activity intervals, keeping every
/// `stride`-th interval. stride 1 reproduces the tenant's full activity;
/// stride 2^g is the g-times-drifted (thinned) variant, whose active
/// ratio is roughly halved per drift.
TenantLog BuildLog(const Workload& workload, size_t index, size_t stride) {
  TenantLog log;
  log.tenant_id = workload.tenants[index].id;
  const auto& intervals = workload.activity[index].intervals();
  for (size_t j = 0; j < intervals.size(); j += stride) {
    log.entries.push_back(
        {intervals[j].begin, 0, intervals[j].length(), -1});
  }
  return log;
}

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

/// Mutable registration state replayed by every pass.
struct SoakState {
  std::vector<size_t> registered;           // workload indices
  std::vector<TenantLog> history;           // one log per registered tenant
  std::unordered_map<size_t, size_t> drift_gen;  // index -> thinnings

  explicit SoakState(const Workload& workload, int initial_tenants) {
    registered.reserve(static_cast<size_t>(initial_tenants));
    history.reserve(static_cast<size_t>(initial_tenants));
    for (size_t i = 0; i < static_cast<size_t>(initial_tenants); ++i) {
      registered.push_back(i);
      history.push_back(BuildLog(workload, i, 1));
    }
  }

  void Apply(const Workload& workload, const CycleChurn& churn) {
    for (size_t index : churn.deregistered) {
      TenantId id = workload.tenants[index].id;
      auto reg = std::find(registered.begin(), registered.end(), index);
      registered.erase(reg);
      auto log = std::find_if(
          history.begin(), history.end(),
          [id](const TenantLog& l) { return l.tenant_id == id; });
      history.erase(log);
    }
    for (size_t index : churn.registered) {
      registered.push_back(index);
      history.push_back(BuildLog(workload, index, 1));
    }
    for (size_t index : churn.drifted) {
      size_t gen = ++drift_gen[index];
      TenantId id = workload.tenants[index].id;
      auto log = std::find_if(
          history.begin(), history.end(),
          [id](const TenantLog& l) { return l.tenant_id == id; });
      if (log != history.end()) {
        *log = BuildLog(workload, index, size_t{1} << gen);
      }
    }
  }

  std::vector<TenantSpec> RegisteredSpecs(const Workload& workload) const {
    std::vector<TenantSpec> specs;
    specs.reserve(registered.size());
    for (size_t index : registered) specs.push_back(workload.tenants[index]);
    return specs;
  }
};

/// Appends the advisor's excluded (always-active / burst-imminent) tenants
/// as dedicated singleton groups, the way the re-consolidation planner
/// does, so cold plans account for the same node total as delta plans.
Status AppendDedicated(const AdvisorOutput& advised, GroupId* next_id,
                       DeploymentPlan* plan) {
  for (size_t e = 0; e < advised.excluded_tenants.size(); ++e) {
    const TenantSpec& excluded = advised.excluded_tenants[e];
    GroupDeployment dedicated;
    dedicated.group_id = (*next_id)++;
    dedicated.tenants.push_back(excluded);
    dedicated.member_activity_baseline.push_back(
        advised.excluded_active_ratios[e]);
    THRIFTY_ASSIGN_OR_RETURN(
        dedicated.cluster,
        DesignGroupCluster(excluded.requested_nodes, excluded.requested_nodes,
                           plan->replication_factor));
    plan->groups.push_back(std::move(dedicated));
  }
  return Status::OK();
}

/// Deterministic membership stream of a plan: group ids with their sorted
/// member tenant ids and node counts, in group-id order (now the shared
/// canonical form in placement/deployment_plan.h; format unchanged, so the
/// committed fingerprints still compare).
std::string PlanStream(const DeploymentPlan& plan) {
  return CanonicalMembershipStream(plan);
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

struct CycleStats {
  size_t registered = 0;
  size_t untouched = 0;
  size_t resolved = 0;
  size_t drifted = 0;
  size_t absorbers = 0;
  size_t repaired = 0;
  size_t evicted = 0;
  size_t missing = 0;
  double effectiveness = 0;
  double seconds = 0;
  bool covers = true;
};

struct SoakResult {
  std::vector<CycleStats> cycles;
  uint64_t fingerprint = 0;
  double total_seconds = 0;
};

/// Replays the schedule with the delta planner (warm-started, drift
/// screened); the plan produced by each cycle is the next cycle's input.
SoakResult RunDelta(const Workload& workload, const SoakScenario& scenario,
                    const std::vector<CycleChurn>& schedule,
                    const DeploymentPlan& initial_plan,
                    const AdvisorOptions& base, int solver_jobs) {
  SoakState state(workload, scenario.initial_tenants);
  DeploymentPlan plan = initial_plan;

  ReconsolidationOptions options;
  options.advisor = base;
  options.advisor.solver_jobs = solver_jobs;
  // Per-tenant active ratios in this workload sit around 1-2%; a drift
  // (log thinning) halves a tenant's ratio, moving it by ~0.005-0.01.
  options.activity_delta_threshold = 0.003;
  ReconsolidationPlanner planner(options);

  SoakResult result;
  std::string stream;
  for (const CycleChurn& churn : schedule) {
    state.Apply(workload, churn);

    ReconsolidationInput input;
    input.current_plan = std::move(plan);
    for (size_t index : churn.registered) {
      input.new_tenants.push_back(workload.tenants[index]);
    }
    for (size_t index : churn.deregistered) {
      input.deregistered.insert(workload.tenants[index].id);
    }

    auto start = std::chrono::steady_clock::now();
    auto output =
        planner.Plan(input, state.history, 0, workload.horizon_end);
    const double seconds = bench::Seconds(start);
    if (!output.ok()) throw std::runtime_error(output.status().ToString());
    plan = std::move(output->plan);

    CycleStats stats;
    stats.registered = state.registered.size();
    stats.untouched = output->untouched_groups.size();
    stats.resolved = output->resolved_groups.size();
    stats.drifted = output->drifted_groups;
    stats.absorbers = output->absorber_groups;
    stats.repaired = output->grouping.warm_groups_repaired;
    stats.evicted = output->grouping.warm_members_evicted;
    stats.missing = output->grouping.warm_members_missing;
    stats.effectiveness = plan.ConsolidationEffectiveness();
    stats.seconds = seconds;
    stats.covers = CoversExactly(plan, state.RegisteredSpecs(workload));
    result.total_seconds += stats.seconds;
    result.cycles.push_back(stats);
    stream += PlanStream(plan);
  }
  result.fingerprint = Fnv1a64(stream);
  return result;
}

/// Replays the schedule with a cold full Advise over the entire registered
/// population each cycle (no previous plan, no warm start).
SoakResult RunCold(const Workload& workload, const SoakScenario& scenario,
                   const std::vector<CycleChurn>& schedule,
                   const AdvisorOptions& base, int solver_jobs) {
  SoakState state(workload, scenario.initial_tenants);
  AdvisorOptions options = base;
  options.solver_jobs = solver_jobs;
  DeploymentAdvisor advisor(options);

  SoakResult result;
  for (const CycleChurn& churn : schedule) {
    state.Apply(workload, churn);
    std::vector<TenantSpec> specs = state.RegisteredSpecs(workload);

    auto start = std::chrono::steady_clock::now();
    auto advised = advisor.Advise(specs, state.history, 0,
                                  workload.horizon_end);
    const double seconds = bench::Seconds(start);
    if (!advised.ok()) throw std::runtime_error(advised.status().ToString());
    DeploymentPlan plan = std::move(advised->plan);
    GroupId next_id = static_cast<GroupId>(plan.groups.size());
    auto status = AppendDedicated(*advised, &next_id, &plan);
    if (!status.ok()) throw std::runtime_error(status.ToString());

    CycleStats stats;
    stats.registered = state.registered.size();
    stats.effectiveness = plan.ConsolidationEffectiveness();
    stats.seconds = seconds;
    stats.covers = CoversExactly(plan, specs);
    result.total_seconds += stats.seconds;
    result.cycles.push_back(stats);
  }
  return result;
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

  // Initial deployment: advise the starting population once; every pass
  // starts from this same plan (advisor output is solver-jobs-invariant).
  AdvisorOptions base;  // R=3, P=99.9%, E=10s
  DeploymentPlan initial_plan;
  {
    SoakState initial(workload, scenario.initial_tenants);
    AdvisorOptions advisor_options = base;
    advisor_options.solver_jobs = options.solver_jobs;
    DeploymentAdvisor advisor(advisor_options);
    auto advised = advisor.Advise(initial.RegisteredSpecs(workload),
                                  initial.history, 0, workload.horizon_end);
    if (!advised.ok()) {
      std::cerr << "initial Advise failed: " << advised.status().ToString()
                << "\n";
      return 1;
    }
    initial_plan = std::move(advised->plan);
    GroupId next_id = static_cast<GroupId>(initial_plan.groups.size());
    if (!AppendDedicated(*advised, &next_id, &initial_plan).ok()) return 1;
  }

  // Delta pass at each solver-jobs value; the first is the canonical one
  // for stats and timing, the others exist to assert determinism.
  const int jobs_values[] = {1, 2, 4};
  std::vector<SoakResult> delta_runs;
  for (int jobs : jobs_values) {
    delta_runs.push_back(RunDelta(workload, scenario, schedule, initial_plan,
                                  base, jobs));
  }
  const SoakResult& delta = delta_runs[0];
  SoakResult cold = RunCold(workload, scenario, schedule, base,
                            options.solver_jobs);

  bool deterministic = true;
  for (const SoakResult& run : delta_runs) {
    if (run.fingerprint != delta.fingerprint) deterministic = false;
  }
  bool covers = true;
  bool effectiveness_ok = true;

  TablePrinter table({"cycle", "tenants", "untouched", "re-solved",
                      "drifted", "absorbers", "repaired", "evicted",
                      "missing", "delta eff", "cold eff"});
  TablePrinter timings({"cycle", "delta (s)", "cold (s)", "speedup"});
  for (size_t c = 0; c < delta.cycles.size(); ++c) {
    const CycleStats& d = delta.cycles[c];
    const CycleStats& k = cold.cycles[c];
    double delta_pp = (d.effectiveness - k.effectiveness) * 100;
    if (std::abs(delta_pp) > 1.0) effectiveness_ok = false;
    if (!d.covers || !k.covers) covers = false;
    table.AddRow({std::to_string(c + 1), std::to_string(d.registered),
                  std::to_string(d.untouched), std::to_string(d.resolved),
                  std::to_string(d.drifted), std::to_string(d.absorbers),
                  std::to_string(d.repaired), std::to_string(d.evicted),
                  std::to_string(d.missing),
                  FormatPercent(d.effectiveness, 2),
                  FormatPercent(k.effectiveness, 2)});
    timings.AddRow({std::to_string(c + 1), FormatDouble(d.seconds, 3),
                    FormatDouble(k.seconds, 3),
                    FormatDouble(k.seconds / std::max(d.seconds, 1e-9), 1)});
    report.AddMetric("delta_solve_seconds_c" + std::to_string(c + 1),
                     d.seconds);
    report.AddMetric("cold_solve_seconds_c" + std::to_string(c + 1),
                     k.seconds);
    report.AddMetric("delta_effectiveness_c" + std::to_string(c + 1),
                     d.effectiveness);
    report.AddMetric("cold_effectiveness_c" + std::to_string(c + 1),
                     k.effectiveness);
    report.AddMetric("eff_delta_pp_c" + std::to_string(c + 1), delta_pp);
  }
  table.Print(std::cout);
  std::cout << "\nPlanner wall-clock (non-deterministic, excluded from the "
               "fingerprint):\n";
  timings.Print(std::cout);

  double speedup = cold.total_seconds / std::max(delta.total_seconds, 1e-9);
  bool speed_ok = smoke || speedup >= 10.0;
  std::cout << "\nTotal: delta " << FormatDouble(delta.total_seconds, 3)
            << " s vs cold " << FormatDouble(cold.total_seconds, 3)
            << " s -> " << FormatDouble(speedup, 1) << "x"
            << (smoke ? " (not gated in --smoke)" : " (gate: >= 10x)")
            << "\n";
  const std::string fp = Hex64(delta.fingerprint);
  std::cout << "Delta plan fingerprint: " << fp
            << (deterministic ? " (identical at solver-jobs 1/2/4)"
                              : " (MISMATCH across solver-jobs!)")
            << "\n";

  report.SetResultsTable(table);
  report.AddText("delta_plan_fnv1a", fp);
  report.AddMetric("delta_solve_seconds_total", delta.total_seconds);
  report.AddMetric("cold_solve_seconds_total", cold.total_seconds);
  report.AddMetric("delta_speedup_x", speedup);
  std::cout << "\n";
  report.Gate("determinism_check_passed", deterministic,
              "delta plan identical at solver-jobs 1/2/4");
  report.Gate("coverage_check_passed", covers,
              "every registered tenant placed exactly once");
  report.Gate("effectiveness_check_passed", effectiveness_ok,
              "delta effectiveness within 1pp of cold every cycle");
  report.Gate("speedup_check_passed", speed_ok,
              "delta speedup >= 10x over cold (full scale only)");
  report.AddMetric("cycles", static_cast<double>(scenario.cycles));
  return report.Finish();
}
