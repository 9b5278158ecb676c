#include "workload_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

using namespace thrifty;

Scale Scale::Full() {
  Scale scale;
  scale.plan_tenants = 6000;
  scale.churn_initial_tenants = 500;
  scale.churn_cycles = 200;
  scale.serve_tenants = 1000;
  return scale;
}

Scale Scale::Toy() {
  Scale scale;
  scale.plan_tenants = 300;
  scale.plan_horizon_days = 3;
  scale.plan_shard_jobs = 2;
  scale.churn_initial_tenants = 60;
  scale.churn_cycles = 6;
  scale.churn_per_cycle = 3;
  scale.churn_drift_per_cycle = 2;
  scale.churn_fail_every = 3;
  scale.churn_horizon_days = 3;
  scale.serve_tenants = 40;
  scale.serve_horizon_days = 3;
  scale.serve_step_queries = 1000;
  scale.sessions_per_class = 5;
  return scale;
}

void Repetition::Count(const Status& status, const std::string& what) {
  ++attempted;
  if (!status.ok()) {
    ++failed;
    failures.push_back(what + ": " + status.ToString());
  }
}

void Repetition::Check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back("check failed: " + what);
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(position));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double fraction = position - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * fraction;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double PlanSlaAttainment(const DeploymentPlan& plan) {
  double weighted = 0;
  size_t members = 0;
  for (const GroupDeployment& group : plan.groups) {
    weighted += group.ttp * static_cast<double>(group.tenants.size());
    members += group.tenants.size();
  }
  return members == 0 ? 1.0 : weighted / static_cast<double>(members);
}

std::string Hex(uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

uint64_t PopulationFingerprint(const std::vector<TenantSpec>& specs) {
  uint64_t hash = kFnv1a64Offset;
  for (const TenantSpec& spec : specs) {
    hash = FoldValue(hash, spec.id);
    hash = FoldValue(hash, spec.requested_nodes);
    hash = FoldValue(hash, spec.data_gb);
    hash = FoldValue(hash, spec.suite);
    hash = FoldValue(hash, spec.time_zone_offset_hours);
    hash = FoldValue(hash, spec.max_users);
  }
  return hash;
}

uint64_t LogFingerprint(const std::vector<TenantLog>& logs) {
  uint64_t hash = kFnv1a64Offset;
  for (const TenantLog& log : logs) {
    hash = FoldValue(hash, log.tenant_id);
    for (const QueryLogEntry& entry : log.entries) {
      hash = FoldValue(hash, entry.submit_time);
      hash = FoldValue(hash, entry.template_id);
      hash = FoldValue(hash, entry.observed_latency);
      hash = FoldValue(hash, entry.batch_id);
    }
  }
  return hash;
}

Result<Population> MakePopulation(const QueryCatalog& catalog, uint64_t seed,
                                  int count, std::vector<int> node_sizes,
                                  int sessions_per_class) {
  Population population;
  population.library = std::make_unique<SessionLibrary>(
      &catalog, node_sizes, sessions_per_class,
      Rng(kLibrarySeed).Fork(1));
  PopulationOptions options;
  options.node_sizes = std::move(node_sizes);
  Rng pop_rng = Rng(seed).Fork(2);
  THRIFTY_ASSIGN_OR_RETURN(population.tenants,
                           GenerateTenantPopulation(count, options, &pop_rng));
  return population;
}

}  // namespace perfbench
