// Administrator status report (Fig 3.1: the Tenant Activity Monitor's
// information "is available to the system administrator for advanced system
// tuning", Chapter 6).
//
// Snapshots a running ThriftyService: cluster utilization, per-group
// RT-TTP / live active counts / manual-tuning advice, SLA attainment, and
// the elastic-scaling history.

#ifndef THRIFTY_CORE_ADMIN_REPORT_H_
#define THRIFTY_CORE_ADMIN_REPORT_H_

#include <ostream>
#include <vector>

#include "common/result.h"
#include "core/service.h"
#include "scaling/manual_tuning.h"

namespace thrifty {

/// \brief One tenant-group's operator view.
struct GroupStatus {
  GroupId group_id = -1;
  size_t num_tenants = 0;
  int num_mppdbs = 0;
  /// Node count of MPPDB_0 (U) and of the replicas (n_1).
  int tuning_nodes = 0;
  int replica_nodes = 0;
  /// 24h RT-TTP at snapshot time.
  double rt_ttp = 1.0;
  /// Tenants with queries running right now (excluded tenants not counted).
  int active_tenants = 0;
  /// Chapter 6 advice for this group at its current RT-TTP.
  TuningAction tuning_action = TuningAction::kNone;
  int recommended_tuning_nodes = 0;
  /// Whether the group already went through elastic scaling.
  bool scaled = false;
};

/// \brief One query template's traffic through the router (sorted by
/// template id; only templates that saw traffic appear).
struct TemplateUsage {
  TemplateId template_id = -1;
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t InFlight() const { return submitted - completed; }
};

/// \brief Whole-service snapshot.
struct ServiceStatusReport {
  SimTime generated_at = 0;
  int nodes_total = 0;
  int nodes_in_use = 0;
  ServiceMetrics metrics;
  std::vector<GroupStatus> groups;
  std::vector<ScalingEvent> scaling_events;
  /// Per-template submit/complete counters — the operator's view of which
  /// templates carry the traffic.
  std::vector<TemplateUsage> template_usage;
};

/// \brief Builds a snapshot of a deployed service.
Result<ServiceStatusReport> BuildStatusReport(ThriftyService* service);

/// \brief Renders the report as operator-readable tables.
void PrintStatusReport(const ServiceStatusReport& report, std::ostream& os);

}  // namespace thrifty

#endif  // THRIFTY_CORE_ADMIN_REPORT_H_
