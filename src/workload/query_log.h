// Query logs: the unit of history the Tenant Activity Monitor collects and
// the Deployment Advisor consumes.

#ifndef THRIFTY_WORKLOAD_QUERY_LOG_H_
#define THRIFTY_WORKLOAD_QUERY_LOG_H_

#include <iosfwd>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"

namespace thrifty {

class ActivityVector;

/// \brief One logged query execution.
struct QueryLogEntry {
  SimTime submit_time = 0;
  TemplateId template_id = -1;
  /// Latency observed when the log was recorded (on the tenant's own
  /// dedicated MPPDB, possibly with the tenant's own intra-tenant
  /// concurrency).
  SimDuration observed_latency = 0;
  /// Queries submitted together as one report-generation batch share an id;
  /// -1 for single interactive queries.
  int32_t batch_id = -1;
};

/// \brief The full query history of one tenant over the log horizon.
struct TenantLog {
  TenantId tenant_id = kInvalidTenantId;
  /// Entries sorted by submit_time.
  std::vector<QueryLogEntry> entries;

  /// \brief Union of [submit, submit + latency) over all entries: the spans
  /// during which the tenant is *active* (has a query being executed).
  IntervalSet ActivityIntervals() const;

  /// \brief Fraction of [begin, end) during which the tenant is active.
  double ActiveRatio(SimTime begin, SimTime end) const;

  /// \brief Sorts entries by submit time (stable).
  void SortEntries();
};

/// \brief Writes logs as CSV (tenant_id,submit_ms,template_id,latency_ms,
/// batch_id) — one row per entry.
Status WriteLogsCsv(const std::vector<TenantLog>& logs, std::ostream& os);

/// \brief Parses logs written by WriteLogsCsv.
Result<std::vector<TenantLog>> ReadLogsCsv(std::istream& is);

/// \brief Mean over [begin, end) of (#tenants active at time t) / #tenants —
/// the "active tenant ratio" of the paper (about 10% in real DaaS).
double AverageActiveTenantRatio(const std::vector<TenantLog>& logs,
                                SimTime begin, SimTime end);

/// \brief Mean of (#active tenants / #tenants) over *busy* epochs only
/// (epochs with at least one active tenant), over tenants' activity
/// vectors on one epoch grid.
///
/// Unlike the time-average, this conditional ratio rises when the same
/// per-tenant activity is concentrated into fewer clock hours — the effect
/// the §7.4 "higher active tenant ratio" scenarios (single time zone, no
/// lunch hour) produce.
double ConditionalActiveTenantRatio(const std::vector<ActivityVector>& vectors);

}  // namespace thrifty

#endif  // THRIFTY_WORKLOAD_QUERY_LOG_H_
