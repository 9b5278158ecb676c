#include "workload/log_generator.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>

#include "common/thread_pool.h"

namespace thrifty {

SessionLibrary::SessionLibrary(const QueryCatalog* catalog,
                               std::vector<int> node_sizes,
                               int sessions_per_class, Rng rng,
                               SessionOptions session_options)
    : node_sizes_(std::move(node_sizes)),
      sessions_per_class_(sessions_per_class) {
  assert(catalog != nullptr);
  assert(sessions_per_class >= 1);
  SessionSimulator simulator(catalog, session_options);
  uint64_t stream = 1;
  for (int nodes : node_sizes_) {
    for (QuerySuite suite : {QuerySuite::kTpch, QuerySuite::kTpcds}) {
      auto& pool = sessions_[{nodes, suite}];
      pool.reserve(static_cast<size_t>(sessions_per_class));
      for (int s = 0; s < sessions_per_class; ++s) {
        Rng session_rng = rng.Fork(stream++);
        int num_users = static_cast<int>(session_rng.NextInt(1, 5));
        pool.push_back(simulator.Run(nodes, kDataGbPerNode * nodes, suite,
                                     num_users, &session_rng));
      }
    }
  }
}

Result<const TenantLog*> SessionLibrary::Sample(int nodes, QuerySuite suite,
                                                Rng* rng) const {
  auto it = sessions_.find({nodes, suite});
  if (it == sessions_.end() || it->second.empty()) {
    return Status::NotFound("no session logs for " + std::to_string(nodes) +
                            "-node " + QuerySuiteToString(suite));
  }
  return &it->second[rng->NextBounded(it->second.size())];
}

Result<const std::vector<TenantLog>*> SessionLibrary::SessionsFor(
    int nodes, QuerySuite suite) const {
  auto it = sessions_.find({nodes, suite});
  if (it == sessions_.end()) {
    return Status::NotFound("no session logs for " + std::to_string(nodes) +
                            "-node " + QuerySuiteToString(suite));
  }
  return &it->second;
}

LogComposer::LogComposer(const SessionLibrary* library,
                         LogComposerOptions options)
    : library_(library), options_(std::move(options)) {
  assert(library != nullptr);
}

namespace {

// Composition core shared by Compose, ComposeActivity, and
// ComposeActivityVectors: makes every sampling decision of §7.1 Step 2,
// reports each placed session via `visit(spec, session_start, session)`,
// and calls `finish(spec)` once all of a tenant's sessions are placed. The
// entry points differ only in what they do with a placed session.
//
// Every tenant samples from its own Rng stream (forked by tenant id), so
// tenant composition is sharded across `pool` when one is given: `visit`
// and `finish` may then run concurrently for *distinct* tenants and must
// only touch per-tenant state; calls for one tenant stay in session order
// on one thread (with `finish` last), so the composed output is
// byte-identical for any job count.
template <typename Visitor, typename Finisher>
Status ForEachSession(const SessionLibrary& library,
                      const LogComposerOptions& options,
                      std::vector<TenantSpec>* tenants, Rng* rng,
                      ThreadPool* pool, Visitor&& visit, Finisher&& finish) {
  if (options.offset_hours.empty()) {
    return Status::InvalidArgument("offset_hours must not be empty");
  }
  if (options.horizon_days < 1) {
    return Status::InvalidArgument("horizon must be at least one day");
  }

  // Working days: weekdays minus per-zone holidays. Holiday choices are
  // "randomly chosen, but they are the same for the tenants in the same
  // time zone" (§7.1).
  std::vector<int> weekdays;
  for (int d = 0; d < options.horizon_days; ++d) {
    bool weekend = options.weekends_off && (d % 7 == 5 || d % 7 == 6);
    if (!weekend) weekdays.push_back(d);
  }
  if (weekdays.empty()) {
    return Status::InvalidArgument("horizon has no working days");
  }
  std::map<int, std::set<int>> holidays_by_zone;
  for (int zone : options.offset_hours) {
    auto& holidays = holidays_by_zone[zone];
    Rng zone_rng = rng->Fork(0x401dull + static_cast<uint64_t>(zone));
    int wanted = std::min<int>(options.num_holidays,
                               static_cast<int>(weekdays.size()));
    while (static_cast<int>(holidays.size()) < wanted) {
      holidays.insert(weekdays[zone_rng.NextBounded(weekdays.size())]);
    }
  }

  const SimDuration session_len = 3 * kHour;
  const SimDuration lunch = options.lunch_break ? 2 * kHour : 0;

  // Per-tenant composition; returns the first failing status, if any. Reads
  // only const state (rng->Fork is pure) and writes only this tenant's spec
  // plus whatever the visitor touches.
  auto compose_tenant = [&](TenantSpec& spec) -> Status {
    Rng tenant_rng = rng->Fork(0x7e4a47ull * 31 +
                               static_cast<uint64_t>(spec.id) + 1);
    spec.time_zone_offset_hours = options.offset_hours[tenant_rng.NextBounded(
        options.offset_hours.size())];
    const auto& holidays = holidays_by_zone.at(spec.time_zone_offset_hours);

    for (int day : weekdays) {
      if (holidays.count(day)) continue;
      SimTime base = static_cast<SimTime>(day) * kDay +
                     static_cast<SimTime>(spec.time_zone_offset_hours) * kHour;
      // Morning office hours, afternoon office hours after lunch, and the
      // evening report-generation window.
      SimTime morning = base;
      SimTime afternoon = morning + session_len + lunch;
      SimTime evening = afternoon + session_len +
                        static_cast<SimTime>(options.report_gap_hours) * kHour;
      for (SimTime session_start : {morning, afternoon, evening}) {
        THRIFTY_ASSIGN_OR_RETURN(
            const TenantLog* session,
            library.Sample(spec.requested_nodes, spec.suite, &tenant_rng));
        visit(spec, session_start, *session);
      }
    }
    finish(spec);
    return Status::OK();
  };

  std::vector<Status> statuses(tenants->size());
  ParallelFor(pool, tenants->size(), [&](size_t i) {
    statuses[i] = compose_tenant((*tenants)[i]);
  });
  for (const Status& status : statuses) {
    THRIFTY_RETURN_NOT_OK(status);
  }
  return Status::OK();
}

template <typename Visitor>
Status ForEachSession(const SessionLibrary& library,
                      const LogComposerOptions& options,
                      std::vector<TenantSpec>* tenants, Rng* rng,
                      ThreadPool* pool, Visitor&& visit) {
  return ForEachSession(library, options, tenants, rng, pool,
                        std::forward<Visitor>(visit),
                        [](const TenantSpec&) {});
}

// Session activity intervals are expensive to recompute (union over
// hundreds of entries); precompute one normalized set per library log.
// Eagerly over the whole library — a lazily filled cache would be shared
// mutable state across tenants, which tenant sharding cannot tolerate.
struct SessionActivityCache {
  std::vector<IntervalSet> sets;
  std::unordered_map<const TenantLog*, const IntervalSet*> by_session;
};

SessionActivityCache BuildSessionActivityCache(const SessionLibrary& library,
                                               ThreadPool* pool) {
  SessionActivityCache cache;
  std::vector<const TenantLog*> sessions;
  for (int nodes : library.node_sizes()) {
    for (QuerySuite suite : {QuerySuite::kTpch, QuerySuite::kTpcds}) {
      auto pool_result = library.SessionsFor(nodes, suite);
      if (!pool_result.ok()) continue;
      for (const TenantLog& session : **pool_result) {
        sessions.push_back(&session);
      }
    }
  }
  cache.sets.resize(sessions.size());
  ParallelFor(pool, sessions.size(), [&](size_t i) {
    cache.sets[i] = sessions[i]->ActivityIntervals();
  });
  cache.by_session.reserve(sessions.size());
  for (size_t i = 0; i < sessions.size(); ++i) {
    cache.by_session.emplace(sessions[i], &cache.sets[i]);
  }
  return cache;
}

// Appends one placed session's activity to a tenant's interval set,
// clipping at the horizon.
void AppendSessionActivity(const IntervalSet& session_activity,
                           SimTime session_start, SimTime horizon,
                           IntervalSet* out) {
  for (const auto& iv : session_activity.intervals()) {
    SimTime begin = session_start + iv.begin;
    if (begin >= horizon) break;
    out->Add(begin, std::min(horizon, session_start + iv.end));
  }
}

}  // namespace

Result<std::vector<TenantLog>> LogComposer::Compose(
    std::vector<TenantSpec>* tenants, Rng* rng) const {
  const SimTime horizon = horizon_end();
  std::vector<TenantLog> logs;
  logs.reserve(tenants->size());
  std::unordered_map<TenantId, size_t> log_index;
  for (const auto& spec : *tenants) {
    log_index[spec.id] = logs.size();
    TenantLog log;
    log.tenant_id = spec.id;
    logs.push_back(std::move(log));
  }
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(options_.jobs);
  THRIFTY_RETURN_NOT_OK(ForEachSession(
      *library_, options_, tenants, rng, pool.get(),
      [&](const TenantSpec& spec, SimTime session_start,
          const TenantLog& session) {
        // Writes only this tenant's log slot; log_index is const by now.
        TenantLog& log = logs[log_index.at(spec.id)];
        for (const auto& e : session.entries) {
          SimTime submit = session_start + e.submit_time;
          if (submit >= horizon) continue;
          QueryLogEntry shifted = e;
          shifted.submit_time = submit;
          log.entries.push_back(shifted);
        }
      }));
  ParallelFor(pool.get(), logs.size(),
              [&](size_t i) { logs[i].SortEntries(); });
  return logs;
}

Result<std::vector<IntervalSet>> LogComposer::ComposeActivity(
    std::vector<TenantSpec>* tenants, Rng* rng) const {
  const SimTime horizon = horizon_end();
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(options_.jobs);
  const SessionActivityCache cache =
      BuildSessionActivityCache(*library_, pool.get());

  std::vector<IntervalSet> activity(tenants->size());
  std::unordered_map<TenantId, size_t> index;
  for (size_t i = 0; i < tenants->size(); ++i) {
    index[(*tenants)[i].id] = i;
  }
  THRIFTY_RETURN_NOT_OK(ForEachSession(
      *library_, options_, tenants, rng, pool.get(),
      [&](const TenantSpec& spec, SimTime session_start,
          const TenantLog& session) {
        // Writes only this tenant's activity slot; the session cache and
        // the index map are const by now.
        AppendSessionActivity(*cache.by_session.at(&session), session_start,
                              horizon, &activity[index.at(spec.id)]);
      }));
  return activity;
}

Result<std::vector<ActivityVector>> LogComposer::ComposeActivityVectors(
    std::vector<TenantSpec>* tenants, Rng* rng, const EpochConfig& epochs,
    EpochizeGauge* gauge) const {
  if (!epochs.Valid() || epochs.end < horizon_end()) {
    return Status::InvalidArgument(
        "epoch grid must cover the composition horizon");
  }
  const SimTime horizon = horizon_end();
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(options_.jobs);
  const SessionActivityCache cache =
      BuildSessionActivityCache(*library_, pool.get());

  std::vector<ActivityVector> vectors(tenants->size());
  std::vector<IntervalSet> scratch(tenants->size());
  std::unordered_map<TenantId, size_t> index;
  for (size_t i = 0; i < tenants->size(); ++i) {
    index[(*tenants)[i].id] = i;
  }
  THRIFTY_RETURN_NOT_OK(ForEachSession(
      *library_, options_, tenants, rng, pool.get(),
      [&](const TenantSpec& spec, SimTime session_start,
          const TenantLog& session) {
        AppendSessionActivity(*cache.by_session.at(&session), session_start,
                              horizon, &scratch[index.at(spec.id)]);
      },
      [&](const TenantSpec& spec) {
        // The tenant is fully composed: epochize and drop its intervals so
        // only the sparse words outlive composition.
        const size_t i = index.at(spec.id);
        if (gauge != nullptr) {
          gauge->Acquire(scratch[i].intervals().capacity() *
                         sizeof(TimeInterval));
        }
        vectors[i] = EpochizeIntervals(spec.id, scratch[i], epochs, gauge);
        if (gauge != nullptr) {
          gauge->Release(scratch[i].intervals().capacity() *
                         sizeof(TimeInterval));
        }
        scratch[i] = IntervalSet();
      }));
  return vectors;
}

}  // namespace thrifty
