// Simulated MPPDB instance: an egalitarian processor-sharing executor.
//
// A group of machine nodes runs one MPPDB instance (the paper's cluster
// design, §4.1). The instance hosts the data of many tenants (shared-process
// multi-tenancy) and executes their analytical queries. Because analytical
// workloads are I/O-bound, k concurrent queries each progress at 1/k of their
// dedicated rate — the behaviour measured in Fig 1.1a (2T-CON runs 2x slower,
// 4T-CON 4x slower, while xT-SEQ matches single-tenant latency).
//
// The executor is formulated in *virtual time*: a per-instance virtual clock
// V accumulates normalized service (milliseconds at dedicated rate), advancing
// at SpeedFactor()/k per wall millisecond — an O(1) update regardless of k.
// Each admitted query gets an immutable finish tag V_admit + dedicated_work;
// its remaining work at any instant is the single subtraction tag - V, and it
// completes when that drops to (an epsilon of) zero. Running queries sit in
// a binary min-heap keyed (tag, admission_seq), so Submit and completion
// handling are O(log k) and the next completion falls out of the heap top
// in O(1).
//
// The historical O(k) linear sweep over a flat vector survives as a test
// oracle (tests/oracles/dense_executor.h) running the *identical*
// floating-point arithmetic (same V updates, same tag construction, same
// tag - V subtraction, same ceil quantization of the next-event wall time).
// Since IEEE subtraction is monotone in the tag, min-by-tag equals
// min-by-remaining and the completion set is downward closed in tag order —
// so the heap provably emits the sweep's byte-identical (finish_time,
// query_id) completion stream; tests/executor_equivalence_test.cc checks
// exactly that.

#ifndef THRIFTY_MPPDB_INSTANCE_H_
#define THRIFTY_MPPDB_INSTANCE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "mppdb/query_model.h"
#include "sim/engine.h"

namespace thrifty {

using InstanceId = int32_t;
using TenantId = int32_t;
using QueryId = int64_t;

inline constexpr InstanceId kInvalidInstanceId = -1;
inline constexpr TenantId kInvalidTenantId = -1;

/// \brief Lifecycle state of an MPPDB instance.
enum class InstanceState {
  /// Nodes are starting and the MPPDB software is initializing.
  kProvisioning,
  /// Tenant data is being bulk loaded.
  kLoading,
  /// Serving queries.
  kOnline,
  /// Decommissioned (nodes hibernated/returned).
  kStopped,
};

const char* InstanceStateToString(InstanceState state);

/// \brief Record delivered when a query finishes.
struct QueryCompletion {
  QueryId query_id = -1;
  TenantId tenant_id = kInvalidTenantId;
  TemplateId template_id = -1;
  InstanceId instance_id = kInvalidInstanceId;
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  /// Latency this query would have had alone on this instance.
  SimDuration dedicated_latency = 0;
  /// The tenant's SLA latency: alone on an instance of exactly the tenant's
  /// requested node count (0 if the submitter did not provide one).
  SimDuration reference_latency = 0;
  /// Highest number of queries sharing the instance during this query's life.
  int max_concurrency = 1;

  SimDuration MeasuredLatency() const { return finish_time - submit_time; }

  /// \brief Measured latency / reference latency; 1.0 means "as fast as on
  /// dedicated machines" (values <= 1 meet the SLA). Returns 0 if no
  /// reference was provided.
  double NormalizedPerformance() const;
};

/// \brief A query handed to an instance for execution.
struct QuerySubmission {
  QueryId query_id = -1;
  TenantId tenant_id = kInvalidTenantId;
  TemplateId template_id = -1;
  /// SLA reference latency (see QueryCompletion::reference_latency).
  SimDuration reference_latency = 0;
};

/// \brief One MPPDB running on a fixed group of nodes.
class MppdbInstance {
 public:
  using CompletionCallback = std::function<void(const QueryCompletion&)>;

  /// \brief Creates an instance over `nodes` machine nodes.
  ///
  /// The instance starts kOnline by default; provisioning flows (elastic
  /// scaling) create it in kProvisioning and drive the state machine via
  /// SetState.
  MppdbInstance(InstanceId id, int nodes, SimEngine* engine,
                InstanceState initial_state = InstanceState::kOnline);

  InstanceId id() const { return id_; }
  int nodes() const { return nodes_; }
  InstanceState state() const { return state_; }

  /// \brief Transitions the lifecycle state (provisioning flows only).
  void SetState(InstanceState state);

  /// \brief Registers a tenant's data (deployed/partitioned across all the
  /// instance's nodes). Re-adding a tenant updates its data size.
  void AddTenant(TenantId tenant, double data_gb);

  /// \brief Removes a tenant's data. Fails if the tenant has running queries.
  Status RemoveTenant(TenantId tenant);

  bool HostsTenant(TenantId tenant) const;
  double TenantDataGb(TenantId tenant) const;

  /// \brief Total data volume loaded on this instance.
  double TotalDataGb() const;

  /// \brief Sets the callback fired on every query completion.
  void set_completion_callback(CompletionCallback cb) {
    on_completion_ = std::move(cb);
  }

  /// \brief Admits a query for immediate (processor-shared) execution.
  ///
  /// Fails if the instance is not online or does not host the tenant's data.
  Status Submit(const QuerySubmission& submission, const QueryTemplate& tmpl);

  /// \brief True if no query is currently executing ("free" in Algorithm 1).
  bool IsFree() const { return heap_.empty(); }

  /// \brief True if any of `tenant`'s queries is currently executing. O(1).
  bool IsServingTenant(TenantId tenant) const;

  /// \brief Number of queries currently executing.
  int Concurrency() const { return static_cast<int>(heap_.size()); }

  /// \brief Number of distinct tenants with queries currently executing.
  /// O(1) via the per-tenant running-count map.
  int ActiveTenantCount() const {
    return static_cast<int>(running_per_tenant_.size());
  }

  /// \brief Marks one node as failed: the instance stays online but serves
  /// at reduced rate ((nodes - failed)/nodes), per "all major MPPDB products
  /// can still stay online even with (some) node failure" (§4.4).
  Status InjectNodeFailure();

  /// \brief Restores one failed node (replacement came online).
  Status RepairNode();

  int failed_nodes() const { return failed_nodes_; }

  /// \brief Queries completed over this instance's lifetime.
  size_t completed_queries() const { return completed_queries_; }

  /// \brief Total busy time (at least one query running).
  SimDuration busy_time() const;

 private:
  struct RunningQuery {
    QueryId query_id;
    TenantId tenant_id;
    TemplateId template_id;
    SimTime submit_time;
    SimDuration dedicated_latency;
    SimDuration reference_latency;
    /// Virtual time at which this query's work is fully served (immutable:
    /// V at admission + dedicated work in normalized ms).
    double finish_tag;
    /// Admission order, for deterministic equal-tag ties and for the
    /// concurrency high-water query at completion.
    uint64_t admission_seq;
    /// Concurrency right after this query's own admission.
    int concurrency_at_admission;
  };

  /// One entry per admission that raised the concurrency profile: the
  /// suffix-max structure behind max_concurrency. Entries are strictly
  /// decreasing in concurrency front-to-back and increasing in seq, so the
  /// highest concurrency among admissions after seq r is the first entry
  /// with seq > r (binary search, size bounded by peak concurrency).
  struct ConcurrencyPeak {
    uint64_t seq;
    int concurrency;
  };

  /// \brief Advances the virtual clock to wall time `now`: O(1) for any k.
  void AdvanceVirtualTime(SimTime now);

  /// \brief (Re)schedules the next-completion event. Returns the number of
  /// query records read to find the minimum (charged to the cost gauge by
  /// the caller).
  size_t RescheduleCompletion();

  /// \brief Fires completions whose work has been fully served.
  void OnCompletionEvent(SimTime now);

  /// \brief Current service rate factor (node failures slow the instance).
  double SpeedFactor() const;

  QueryCompletion MakeCompletion(const RunningQuery& q, SimTime now) const;

  /// \brief Highest concurrency the instance saw during `q`'s lifetime.
  int MaxConcurrencyDuring(const RunningQuery& q) const;

  /// \brief Records the post-admission concurrency in the peak deque.
  void RecordConcurrencyPeak(uint64_t seq, int concurrency);

  // Min-heap helpers over heap_ keyed (finish_tag, admission_seq); each
  // returns the number of records moved so the cost gauge counts real work.
  static bool TagLess(const RunningQuery& a, const RunningQuery& b) {
    return a.finish_tag < b.finish_tag ||
           (a.finish_tag == b.finish_tag && a.admission_seq < b.admission_seq);
  }
  size_t HeapSiftUp(size_t index);
  size_t HeapSiftDown(size_t index);

  InstanceId id_;
  int nodes_;
  SimEngine* engine_;
  InstanceState state_;
  int failed_nodes_ = 0;

  std::unordered_map<TenantId, double> tenant_data_gb_;

  /// Virtual clock: normalized service delivered per running query since the
  /// current busy period began (rebased to 0 whenever the instance goes
  /// idle, which bounds the magnitude and keeps tag - V well conditioned).
  double virtual_now_ = 0;
  SimTime last_progress_update_ = 0;
  uint64_t admission_counter_ = 0;

  /// Running queries: binary min-heap by (finish_tag, admission_seq).
  std::vector<RunningQuery> heap_;

  /// Count of running queries per tenant (entries erased at zero), making
  /// IsServingTenant O(1) and ActiveTenantCount O(1).
  std::unordered_map<TenantId, int> running_per_tenant_;

  /// Monotone deque of concurrency peaks (see ConcurrencyPeak); replaces
  /// the O(k) per-admission max_concurrency write-back.
  std::deque<ConcurrencyPeak> concurrency_peaks_;

  EventId completion_event_ = kInvalidEventId;
  CompletionCallback on_completion_;

  size_t completed_queries_ = 0;
  SimDuration busy_time_ = 0;
  SimTime busy_since_ = 0;
};

}  // namespace thrifty

#endif  // THRIFTY_MPPDB_INSTANCE_H_
