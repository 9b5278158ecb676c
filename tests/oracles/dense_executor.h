// Test oracle: the O(k) dense processor-sharing executor.
//
// The historical structure MppdbInstance replaced with a finish-tag
// min-heap. Running queries sit in an admission-ordered flat vector and
// every event sweeps all k of them: once for the minimum remaining work
// that schedules the next completion, once to collect the finished
// queries (stable partition, so callbacks fire in admission order), and on
// every admission to write the new concurrency back into each running
// query's high-water mark.
//
// It runs the identical floating-point arithmetic as MppdbInstance's
// virtual-time executor (same virtual clock V and busy-period rebase, same
// immutable finish tags, same tag - V subtraction, same ceil quantization
// of the next-event wall time) and schedules on the same SimEngine the
// same way. The two therefore emit byte-identical completion streams and
// engine traces, including events_processed(). The class covers the subset
// of the MppdbInstance API that executor_equivalence_test drives.

#ifndef THRIFTY_TESTS_ORACLES_DENSE_EXECUTOR_H_
#define THRIFTY_TESTS_ORACLES_DENSE_EXECUTOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "mppdb/instance.h"
#include "mppdb/query_model.h"
#include "sim/engine.h"

namespace thrifty {

/// \brief Linear-sweep processor-sharing executor (reference for
/// MppdbInstance's virtual-time heap).
class DenseExecutor {
 public:
  using CompletionCallback = MppdbInstance::CompletionCallback;

  DenseExecutor(InstanceId id, int nodes, SimEngine* engine);

  void AddTenant(TenantId tenant, double data_gb);
  void set_completion_callback(CompletionCallback cb) {
    on_completion_ = std::move(cb);
  }

  /// \brief Admits a query; fails if the tenant's data is not hosted.
  Status Submit(const QuerySubmission& submission, const QueryTemplate& tmpl);

  bool IsFree() const { return running_.empty(); }
  bool IsServingTenant(TenantId tenant) const;
  int Concurrency() const { return static_cast<int>(running_.size()); }
  int ActiveTenantCount() const;

  Status InjectNodeFailure();
  Status RepairNode();
  int failed_nodes() const { return failed_nodes_; }

  size_t completed_queries() const { return completed_queries_; }
  SimDuration busy_time() const;

 private:
  struct RunningQuery {
    QueryId query_id;
    TenantId tenant_id;
    TemplateId template_id;
    SimTime submit_time;
    SimDuration dedicated_latency;
    SimDuration reference_latency;
    double finish_tag;
    int max_concurrency;
  };

  double SpeedFactor() const;
  void AdvanceVirtualTime(SimTime now);
  size_t RescheduleCompletion();
  void OnCompletionEvent(SimTime now);

  InstanceId id_;
  int nodes_;
  SimEngine* engine_;
  int failed_nodes_ = 0;
  std::unordered_map<TenantId, double> tenant_data_gb_;

  double virtual_now_ = 0;
  SimTime last_progress_update_ = 0;
  std::vector<RunningQuery> running_;

  EventId completion_event_ = kInvalidEventId;
  CompletionCallback on_completion_;
  size_t completed_queries_ = 0;
  SimDuration busy_time_ = 0;
  SimTime busy_since_ = 0;
};

}  // namespace thrifty

#endif  // THRIFTY_TESTS_ORACLES_DENSE_EXECUTOR_H_
