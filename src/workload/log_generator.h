// §7.1 Step 2 — Multi-Tenant Log Composition.
//
// SessionLibrary holds the pool of 3-hour session logs produced by Step 1
// (one pool per node-size x suite class). LogComposer builds each tenant's
// multi-day activity log by pasting randomly drawn session logs at the
// tenant's time-zone-offset office hours (morning, post-lunch afternoon,
// evening report generation), skipping weekends and two public holidays.

#ifndef THRIFTY_WORKLOAD_LOG_GENERATOR_H_
#define THRIFTY_WORKLOAD_LOG_GENERATOR_H_

#include <map>
#include <utility>
#include <vector>

#include "activity/streamed_epochizer.h"
#include "common/result.h"
#include "common/rng.h"
#include "workload/query_log.h"
#include "workload/session.h"
#include "workload/tenant.h"

namespace thrifty {

/// \brief Pool of Step-1 session logs, keyed by (node size, suite).
class SessionLibrary {
 public:
  /// \brief Generates `sessions_per_class` session logs for every
  /// combination of `node_sizes` and both suites. The paper used 100 runs
  /// per 2/4/8/16/32-node MPPDB.
  ///
  /// Each run draws its own S (number of users) uniformly in [1, 5],
  /// matching the paper's procedure.
  SessionLibrary(const QueryCatalog* catalog, std::vector<int> node_sizes,
                 int sessions_per_class, Rng rng,
                 SessionOptions session_options = SessionOptions());

  /// \brief Draws a uniformly random session log of the given class.
  Result<const TenantLog*> Sample(int nodes, QuerySuite suite,
                                  Rng* rng) const;

  const std::vector<int>& node_sizes() const { return node_sizes_; }
  int sessions_per_class() const { return sessions_per_class_; }

  /// \brief All sessions of one class (for inspection/tests).
  Result<const std::vector<TenantLog>*> SessionsFor(int nodes,
                                                    QuerySuite suite) const;

 private:
  std::vector<int> node_sizes_;
  int sessions_per_class_;
  std::map<std::pair<int, QuerySuite>, std::vector<TenantLog>> sessions_;
};

/// \brief Knobs of the Step-2 composition; defaults reproduce §7.1, and the
/// §7.4 "higher active tenant ratio" scenarios are expressed by overriding
/// offset_hours / lunch_break.
struct LogComposerOptions {
  /// Log horizon (the paper generates 30-day activities).
  int horizon_days = 30;
  /// Office-hour start offsets imitating time zones: Seattle, New York,
  /// Sao Paulo, London, Beijing, Japan, Sydney.
  std::vector<int> offset_hours = {0, 3, 5, 8, 16, 17, 19};
  /// Two hours of lunch between the morning and afternoon sessions.
  bool lunch_break = true;
  /// Report-generation session starts this many hours after office hours
  /// end (the paper's "6 hours after the office hour").
  int report_gap_hours = 6;
  /// Weekday public holidays within the horizon, shared per time zone.
  int num_holidays = 2;
  /// Tenants rest on Saturday/Sunday (days 5 and 6 of each week).
  bool weekends_off = true;
  /// Worker threads for composition. Every tenant's sampling runs on its
  /// own forked Rng stream keyed by tenant id, so tenants are sharded
  /// across workers and the composed logs/activity are byte-identical for
  /// any value. 1 = sequential.
  int jobs = 1;

  bool operator==(const LogComposerOptions&) const = default;
};

/// \brief Composes multi-day tenant logs from Step-1 sessions.
class LogComposer {
 public:
  LogComposer(const SessionLibrary* library,
              LogComposerOptions options = LogComposerOptions());

  /// \brief Builds one activity log per tenant.
  ///
  /// Assigns each tenant a random time-zone offset (recorded back into the
  /// spec) and pastes three session logs per working day. Entries whose
  /// submit time falls past the horizon are dropped.
  Result<std::vector<TenantLog>> Compose(std::vector<TenantSpec>* tenants,
                                         Rng* rng) const;

  /// \brief Like Compose, but produces only each tenant's activity
  /// intervals (the union of its query execution spans).
  ///
  /// Identical sampling decisions as Compose for the same seed, but avoids
  /// materializing tens of millions of log entries — the consolidation
  /// experiments only need activity, and session activity-interval sets are
  /// cached per library log.
  Result<std::vector<IntervalSet>> ComposeActivity(
      std::vector<TenantSpec>* tenants, Rng* rng) const;

  /// \brief Like ComposeActivity, but epochizes each tenant's intervals
  /// into a sparse ActivityVector the moment that tenant's composition
  /// finishes and discards the intervals.
  ///
  /// Identical sampling decisions as Compose/ComposeActivity for the same
  /// seed (the produced vectors equal EpochizeIntervals over
  /// ComposeActivity's sets), but the interval working set is bounded by
  /// the tenants in flight rather than the whole population — at 10^6
  /// tenants only the sparse activity words survive composition. `epochs`
  /// must cover [0, horizon_end()); `gauge`, when non-null, is charged the
  /// per-tenant interval + walker working state.
  Result<std::vector<ActivityVector>> ComposeActivityVectors(
      std::vector<TenantSpec>* tenants, Rng* rng, const EpochConfig& epochs,
      EpochizeGauge* gauge = nullptr) const;

  const LogComposerOptions& options() const { return options_; }

  SimTime horizon_end() const {
    return static_cast<SimTime>(options_.horizon_days) * kDay;
  }

 private:
  const SessionLibrary* library_;
  LogComposerOptions options_;
};

}  // namespace thrifty

#endif  // THRIFTY_WORKLOAD_LOG_GENERATOR_H_
