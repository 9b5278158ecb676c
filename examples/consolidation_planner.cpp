// Consolidation planner: a CLI a service operator would run offline.
//
// Generates (or accepts) a multi-tenant MPPDBaaS workload, runs both the
// FFD baseline and Thrifty's two-step tenant-grouping heuristic, and prints
// the deployment plans side by side: nodes saved, group sizes, per-group
// TTP, and the full cluster design of the better plan.
//
// Usage: consolidation_planner [tenants] [theta] [R] [P%] [epoch_s] [days]
//                              [plan_out]
//   e.g. consolidation_planner 800 0.8 3 99.9 10 7 plan.thrifty
//
// When plan_out is given, the winning deployment plan is serialized there
// (ReadDeploymentPlan + DeploymentMaster::Deploy applies it later).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/thrifty.h"

int main(int argc, char** argv) {
  using namespace thrifty;

  int num_tenants = argc > 1 ? std::atoi(argv[1]) : 400;
  double theta = argc > 2 ? std::atof(argv[2]) : 0.8;
  int replication = argc > 3 ? std::atoi(argv[3]) : 3;
  double sla = argc > 4 ? std::atof(argv[4]) / 100.0 : 0.999;
  double epoch_seconds = argc > 5 ? std::atof(argv[5]) : 10;
  int days = argc > 6 ? std::atoi(argv[6]) : 7;
  if (num_tenants < 1 || replication < 1 || sla <= 0 || sla > 1 ||
      epoch_seconds <= 0 || days < 1) {
    std::cerr << "usage: " << argv[0]
              << " [tenants] [theta] [R] [P%] [epoch_s] [days]\n";
    return 2;
  }

  std::cout << "Planning consolidation for " << num_tenants
            << " tenants (theta=" << theta << ", R=" << replication
            << ", P=" << FormatPercent(sla, 2) << ", E=" << epoch_seconds
            << "s, " << days << "-day history)\n\n";

  QueryCatalog catalog = QueryCatalog::Default();
  Rng rng(20260705);
  SessionLibrary library(&catalog, {2, 4, 8, 16, 32},
                         /*sessions_per_class=*/15, rng.Fork(1));
  PopulationOptions population;
  population.zipf_theta = theta;
  Rng pop_rng = rng.Fork(2);
  auto tenants = GenerateTenantPopulation(num_tenants, population, &pop_rng);
  if (!tenants.ok()) {
    std::cerr << tenants.status() << "\n";
    return 1;
  }

  std::cout << "Tenant size distribution (cf. the paper's Figure 5.2):\n";
  TablePrinter sizes({"parallelism", "tenants", "nodes requested"});
  for (auto [nodes, count] : TenantSizeHistogram(*tenants)) {
    sizes.AddRow({std::to_string(nodes) + "-node", std::to_string(count),
                  std::to_string(static_cast<int64_t>(nodes) * count)});
  }
  sizes.Print(std::cout);

  LogComposerOptions composer_options;
  composer_options.horizon_days = days;
  LogComposer composer(&library, composer_options);
  Rng compose_rng = rng.Fork(3);
  auto logs = composer.Compose(&*tenants, &compose_rng);
  if (!logs.ok()) {
    std::cerr << logs.status() << "\n";
    return 1;
  }
  std::cout << "\nAverage active tenant ratio: "
            << FormatPercent(
                   AverageActiveTenantRatio(*logs, 0, composer.horizon_end()),
                   1)
            << "\n";
  std::cout << "\n";

  AdvisorOptions options;
  options.replication_factor = replication;
  options.sla_fraction = sla;
  options.epoch_size = SecondsToDuration(epoch_seconds);

  TablePrinter comparison({"solver", "groups", "avg group size",
                           "nodes used", "nodes requested", "effectiveness",
                           "solve time"});
  AdvisorOutput best;
  for (GroupingSolver solver : {GroupingSolver::kFfd,
                                GroupingSolver::kTwoStep}) {
    options.solver = solver;
    DeploymentAdvisor advisor(options);
    auto advice = advisor.Advise(*tenants, *logs, 0, composer.horizon_end());
    if (!advice.ok()) {
      std::cerr << advice.status() << "\n";
      return 1;
    }
    comparison.AddRow(
        {solver == GroupingSolver::kFfd ? "FFD" : "2-step (Thrifty)",
         std::to_string(advice->plan.groups.size()),
         FormatDouble(advice->grouping.AverageGroupSize(), 1),
         std::to_string(advice->plan.TotalNodesUsed()),
         std::to_string(advice->plan.TotalNodesRequested()),
         FormatPercent(advice->plan.ConsolidationEffectiveness(), 1),
         FormatDouble(advice->grouping.solve_seconds, 2) + "s"});
    if (solver == GroupingSolver::kTwoStep) best = std::move(*advice);
  }
  comparison.Print(std::cout);

  std::cout << "\nTwo-step deployment plan (first 10 tenant-groups):\n";
  TablePrinter plan_table({"group", "tenants", "MPPDBs", "nodes/MPPDB",
                           "TTP@R", "max active"});
  for (const auto& group : best.plan.groups) {
    if (group.group_id >= 10) break;
    plan_table.AddRow({std::to_string(group.group_id),
                       std::to_string(group.tenants.size()),
                       std::to_string(group.cluster.NumMppdbs()),
                       std::to_string(group.LargestTenantNodes()),
                       FormatPercent(group.ttp, 2),
                       std::to_string(group.max_active)});
  }
  plan_table.Print(std::cout);
  if (best.plan.groups.size() > 10) {
    std::cout << "... and " << best.plan.groups.size() - 10
              << " more groups.\n";
  }
  if (!best.excluded_tenants.empty()) {
    std::cout << best.excluded_tenants.size()
              << " always-active tenants excluded from consolidation "
                 "(dedicated service plan).\n";
  }
  if (argc > 7) {
    std::ofstream out(argv[7]);
    if (Status st = WriteDeploymentPlan(best.plan, out); !st.ok()) {
      std::cerr << "failed to write plan: " << st << "\n";
      return 1;
    }
    std::cout << "\nDeployment plan written to " << argv[7] << "\n";
  }
  return 0;
}
