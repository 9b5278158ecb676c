// Query routing (Algorithm 1, §4.3).
//
// The router "routes an active tenant" — not individual queries — to one
// MPPDB: while a tenant has queries running on MPPDB_x, all its queries
// follow to MPPDB_x (so the tenant exclusively owns that MPPDB's capacity);
// once the tenant goes inactive its next query may go anywhere. A free
// MPPDB_0 (the tuning MPPDB) is preferred, then any free MPPDB; if all are
// busy the query overflows to MPPDB_0 for concurrent processing — the case
// manual tuning (Chapter 6) sizes U for.

#ifndef THRIFTY_ROUTING_QUERY_ROUTER_H_
#define THRIFTY_ROUTING_QUERY_ROUTER_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "mppdb/instance.h"
#include "placement/deployment_plan.h"

namespace thrifty {

/// \brief Which branch of Algorithm 1 served a routing decision.
enum class RouteKind {
  /// Line 2: tenant already has queries running on this MPPDB.
  kTenantAffinity,
  /// Line 5: MPPDB_0 was free.
  kTuningFree,
  /// Line 8: some other MPPDB was free.
  kOtherFree,
  /// Line 10: everything busy; concurrent processing on MPPDB_0.
  kOverflow,
  /// Tenant was moved to a dedicated elastic-scaling MPPDB (§5.1).
  kDedicated,
};

const char* RouteKindToString(RouteKind kind);

/// \brief A routing decision.
struct RouteDecision {
  MppdbInstance* instance = nullptr;
  RouteKind kind = RouteKind::kOverflow;
};

/// \brief Router state for one tenant-group and its A MPPDBs.
class GroupRouter {
 public:
  /// \param mppdbs the group's instances; index 0 must be the tuning MPPDB.
  GroupRouter(GroupId group_id, std::vector<MppdbInstance*> mppdbs);

  GroupId group_id() const { return group_id_; }
  const std::vector<MppdbInstance*>& mppdbs() const { return mppdbs_; }

  /// \brief Chooses the MPPDB for a query of `tenant` per Algorithm 1.
  ///
  /// Fails if the group has no online MPPDB at all.
  Result<RouteDecision> Route(TenantId tenant) const;

  /// \brief Directs all future queries of `tenant` to a dedicated instance
  /// (lightweight elastic scaling outcome).
  void AssignDedicated(TenantId tenant, MppdbInstance* instance);

  /// \brief Removes a dedicated assignment (re-consolidation).
  void RemoveDedicated(TenantId tenant);

  bool HasDedicated(TenantId tenant) const {
    return dedicated_.count(tenant) > 0;
  }

  /// \brief Per-branch routing counters (for tests and reports).
  const std::unordered_map<RouteKind, int64_t>& counters() const {
    return counters_;
  }

 private:
  GroupId group_id_;
  std::vector<MppdbInstance*> mppdbs_;
  std::unordered_map<TenantId, MppdbInstance*> dedicated_;
  mutable std::unordered_map<RouteKind, int64_t> counters_;
};

/// \brief Per-template traffic counters kept by the router: the operator's
/// view of the template mix, surfaced by the admin report.
struct TemplateTraffic {
  int64_t submitted = 0;
  int64_t completed = 0;
};

/// \brief Service-wide router: tenant -> group -> Algorithm 1.
class QueryRouter {
 public:
  /// \brief Registers a tenant-group and its MPPDBs.
  Status AddGroup(GroupId group_id, std::vector<MppdbInstance*> mppdbs,
                  const std::vector<TenantId>& tenants);

  /// \brief Unregisters a tenant-group: its router and every tenant mapping
  /// pointing at it are removed (re-consolidation dissolved the group).
  Status RemoveGroup(GroupId group_id);

  /// \brief Routes a query of `tenant`.
  Result<RouteDecision> Route(TenantId tenant) const;

  /// \brief The group router responsible for a tenant.
  Result<GroupRouter*> RouterFor(TenantId tenant);

  Result<GroupRouter*> RouterForGroup(GroupId group_id);

  /// \brief Counts one routed submission of `tmpl`.
  void RecordTemplateSubmit(TemplateId tmpl) {
    ++template_traffic_[tmpl].submitted;
  }

  /// \brief Counts one completion of `tmpl`.
  void RecordTemplateComplete(TemplateId tmpl) {
    ++template_traffic_[tmpl].completed;
  }

  /// \brief Per-template submit/complete counters, ordered by template id
  /// (deterministic iteration for reports and fingerprints).
  const std::map<TemplateId, TemplateTraffic>& template_traffic() const {
    return template_traffic_;
  }

 private:
  std::unordered_map<GroupId, GroupRouter> groups_;
  std::unordered_map<TenantId, GroupId> tenant_group_;
  std::map<TemplateId, TemplateTraffic> template_traffic_;
};

}  // namespace thrifty

#endif  // THRIFTY_ROUTING_QUERY_ROUTER_H_
