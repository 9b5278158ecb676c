// plan_batch: one cold hierarchical consolidation of a §7.1 population.
//
// Setup composes the population's activity straight into sparse vectors
// (LogComposer::ComposeActivityVectors) at the Table 7.1 defaults: θ=0.8,
// R=3, P=99.9%, E=10 s. The timed path is MakePackingProblem ->
// SolveHierarchical (default options, shard_jobs workers, solver_jobs=1) ->
// BuildDeploymentPlan; one repetition is one call of that path. The plan
// is then checked with VerifySolution, outside the timed path.

#include "placement/hierarchical.h"
#include "workload_common.h"

namespace perfbench {
namespace {

using namespace thrifty;

constexpr int kReplication = 3;
constexpr double kSlaFraction = 0.999;

class PlanBatch : public Workload {
 public:
  PlanBatch(uint64_t seed, const Scale& scale) : seed_(seed), scale_(scale) {}

  Repetition Run(Tracer* tracer, bool setup_only) override {
    Repetition rep;
    Span rep_span(tracer, "bench.repetition");
    QueryCatalog catalog = QueryCatalog::Default();

    // --- setup: population and activity vectors -------------------------
    const Clock::time_point setup_start = Clock::now();
    std::vector<ActivityVector> vectors;
    Population population;
    double compose_s = 0;
    {
      Span setup_span(tracer, "bench.setup");
      Result<Population> made = Status::Internal("");
      {
        Span span(tracer, "workload.MakePopulation");
        made = MakePopulation(catalog, seed_, scale_.plan_tenants,
                                 {2, 4, 8, 16, 32}, scale_.sessions_per_class);
      }
      rep.Count(made.status(), "population");
      if (!made.ok()) return rep;
      population = std::move(made).value();
      LogComposerOptions composer_options;
      composer_options.horizon_days = scale_.plan_horizon_days;
      composer_options.jobs = scale_.plan_shard_jobs;
      LogComposer composer(population.library.get(), composer_options);
      EpochConfig epochs;
      epochs.epoch_size = 10 * kSecond;
      epochs.end = composer.horizon_end();
      Rng compose_rng = Rng(seed_).Fork(3);
      const Clock::time_point compose_start = Clock::now();
      Result<std::vector<ActivityVector>> composed = Status::Internal("");
      {
        Span span(tracer, "workload.ComposeActivityVectors");
        composed = composer.ComposeActivityVectors(&population.tenants,
                                                   &compose_rng, epochs);
      }
      compose_s = SecondsSince(compose_start);
      rep.Count(composed.status(), "compose");
      if (!composed.ok()) return rep;
      vectors = std::move(composed).value();
    }
    rep.setup_s = SecondsSince(setup_start);
    if (setup_only) return rep;

    uint64_t activity_fp = kFnv1a64Offset;
    size_t nonzero_words = 0;
    for (const ActivityVector& v : vectors) {
      nonzero_words += v.word_indices().size();
      for (uint32_t index : v.word_indices()) {
        activity_fp = FoldValue(activity_fp, index);
      }
      for (uint64_t bits : v.word_bits()) {
        activity_fp = FoldValue(activity_fp, bits);
      }
    }

    // --- timed path: problem -> hierarchical solve -> deployment plan ----
    const std::vector<TenantSpec>& tenants = population.tenants;
    HierarchicalOptions options;
    options.shard_jobs = scale_.plan_shard_jobs;
    options.solver_jobs = 1;
    HierarchicalStats stats;
    Result<PackingProblem> problem = Status::Internal("not built");
    Result<GroupingSolution> solution = Status::Internal("not solved");
    Result<DeploymentPlan> plan = Status::Internal("not built");
    double solve_s = 0;
    double build_s = 0;
    const Clock::time_point work_start = Clock::now();
    {
      Span work_span(tracer, "bench.work");
      {
        Span span(tracer, "placement.MakePackingProblem");
        problem = MakePackingProblem(tenants, vectors, kReplication,
                                     kSlaFraction);
      }
      if (problem.ok()) {
        const Clock::time_point start = Clock::now();
        Span span(tracer, "placement.SolveHierarchical");
        solution = SolveHierarchical(*problem, options, &stats);
        solve_s = SecondsSince(start);
      }
      if (solution.ok()) {
        const Clock::time_point start = Clock::now();
        Span span(tracer, "placement.BuildDeploymentPlan");
        plan = BuildDeploymentPlan(tenants, *solution, kReplication,
                                   kSlaFraction);
        build_s = SecondsSince(start);
      }
    }
    rep.work_s = SecondsSince(work_start);
    rep.peak_rss_mb = PeakRssMb();
    rep.call_ms.push_back(rep.work_s * 1000.0);
    rep.Count(problem.status(), "MakePackingProblem");
    rep.Count(solution.status(), "SolveHierarchical");
    rep.Count(plan.status(), "BuildDeploymentPlan");
    if (!plan.ok()) return rep;
    rep.items = static_cast<double>(tenants.size());

    // --- output checks ----------------------------------------------------
    const Clock::time_point verify_start = Clock::now();
    {
      Span span(tracer, "placement.VerifySolution");
      rep.Count(VerifySolution(*problem, *solution), "VerifySolution");
    }
    const double verify_s = SecondsSince(verify_start);
    size_t placed = 0;
    for (const GroupDeployment& group : plan->groups) {
      placed += group.tenants.size();
    }
    rep.Check(placed == tenants.size(), "every tenant placed exactly once");
    rep.effectiveness = plan->ConsolidationEffectiveness();
    rep.sla_attainment = PlanSlaAttainment(*plan);
    rep.Check(rep.sla_attainment >= kSlaFraction,
              "member-weighted TTP meets P");

    rep.fingerprint = "seed=" + std::to_string(seed_) +
                      " population=" +
                      Hex(PopulationFingerprint(tenants)) +
                      " activity=" + Hex(activity_fp) +
                      " plan=" + Hex(PlanFingerprint(*plan));

    if (tracer->enabled()) {
      const double phases = stats.signature_seconds +
                            stats.shard_solve_seconds + stats.merge_seconds;
      rep.layer = {
          {"workload.compose_s", compose_s, "s"},
          {"activity.nonzero_words", static_cast<double>(nonzero_words),
           "count"},
          {"placement.solve_s", solve_s, "s"},
          {"placement.signature_s", stats.signature_seconds, "s"},
          {"placement.shard_solve_s", stats.shard_solve_seconds, "s"},
          {"placement.merge_s", stats.merge_seconds, "s"},
          {"placement.phase_coverage", phases / solve_s, "fraction"},
          {"placement.merge_share", stats.merge_seconds / solve_s,
           "fraction"},
          {"placement.merge_pool_share",
           static_cast<double>(stats.merge_pool_tenants) /
               static_cast<double>(tenants.size()),
           "fraction"},
          {"placement.shards", static_cast<double>(stats.num_logical_shards),
           "count"},
          {"placement.groups_before_merge",
           static_cast<double>(stats.groups_before_merge), "count"},
          {"placement.groups_reopened",
           static_cast<double>(stats.groups_reopened), "count"},
          {"placement.merge_pool_tenants",
           static_cast<double>(stats.merge_pool_tenants), "count"},
          {"placement.verify_s", verify_s, "s"},
          {"placement.build_plan_s", build_s, "s"},
      };
    }
    return rep;
  }

 private:
  uint64_t seed_;
  Scale scale_;
};

}  // namespace

std::unique_ptr<Workload> MakePlanBatch(uint64_t seed, const Scale& scale) {
  return std::make_unique<PlanBatch>(seed, scale);
}

}  // namespace perfbench
