#include "oracles/dense_executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <unordered_set>

namespace thrifty {

namespace {
// Same completion epsilon as MppdbInstance (normalized milliseconds).
constexpr double kDoneEpsilonMs = 1e-6;
}  // namespace

DenseExecutor::DenseExecutor(InstanceId id, int nodes, SimEngine* engine)
    : id_(id), nodes_(nodes), engine_(engine) {
  assert(nodes >= 1);
  last_progress_update_ = engine->now();
}

void DenseExecutor::AddTenant(TenantId tenant, double data_gb) {
  tenant_data_gb_[tenant] = data_gb;
}

bool DenseExecutor::IsServingTenant(TenantId tenant) const {
  return std::any_of(
      running_.begin(), running_.end(),
      [&](const RunningQuery& q) { return q.tenant_id == tenant; });
}

int DenseExecutor::ActiveTenantCount() const {
  std::unordered_set<TenantId> tenants;
  for (const RunningQuery& q : running_) tenants.insert(q.tenant_id);
  return static_cast<int>(tenants.size());
}

double DenseExecutor::SpeedFactor() const {
  return static_cast<double>(nodes_ - failed_nodes_) /
         static_cast<double>(nodes_);
}

void DenseExecutor::AdvanceVirtualTime(SimTime now) {
  if (!running_.empty() && now > last_progress_update_) {
    double share = SpeedFactor() / static_cast<double>(running_.size());
    virtual_now_ += static_cast<double>(now - last_progress_update_) * share;
  }
  last_progress_update_ = now;
}

size_t DenseExecutor::RescheduleCompletion() {
  engine_->Cancel(completion_event_);
  completion_event_ = kInvalidEventId;
  const size_t k = running_.size();
  if (k == 0) return 0;
  double min_remaining = running_[0].finish_tag - virtual_now_;
  for (const RunningQuery& q : running_) {
    min_remaining = std::min(min_remaining, q.finish_tag - virtual_now_);
  }
  double share = SpeedFactor() / static_cast<double>(k);
  SimDuration wait = static_cast<SimDuration>(
      std::ceil(std::max(min_remaining, 0.0) / share));
  if (wait < 1 && min_remaining > kDoneEpsilonMs) wait = 1;
  completion_event_ = engine_->ScheduleAfter(
      wait, [this](SimTime t) { OnCompletionEvent(t); });
  return k;
}

void DenseExecutor::OnCompletionEvent(SimTime now) {
  completion_event_ = kInvalidEventId;
  AdvanceVirtualTime(now);
  uint64_t touched = running_.size();
  std::vector<QueryCompletion> done;
  size_t kept = 0;
  for (size_t i = 0; i < running_.size(); ++i) {
    const RunningQuery& q = running_[i];
    if (q.finish_tag - virtual_now_ <= kDoneEpsilonMs) {
      QueryCompletion c;
      c.query_id = q.query_id;
      c.tenant_id = q.tenant_id;
      c.template_id = q.template_id;
      c.instance_id = id_;
      c.submit_time = q.submit_time;
      c.finish_time = now;
      c.dedicated_latency = q.dedicated_latency;
      c.reference_latency = q.reference_latency;
      c.max_concurrency = q.max_concurrency;
      done.push_back(c);
    } else {
      if (kept != i) running_[kept] = running_[i];
      ++kept;
    }
  }
  running_.resize(kept);
  completed_queries_ += done.size();
  if (running_.empty() && !done.empty()) busy_time_ += now - busy_since_;
  touched += RescheduleCompletion();
  if (SimCostGauge* gauge = engine_->cost_gauge()) {
    gauge->RecordCompletionEvent(touched);
  }
  if (on_completion_) {
    for (const QueryCompletion& c : done) on_completion_(c);
  }
}

Status DenseExecutor::Submit(const QuerySubmission& submission,
                             const QueryTemplate& tmpl) {
  auto it = tenant_data_gb_.find(submission.tenant_id);
  if (it == tenant_data_gb_.end()) {
    return Status::NotFound("tenant data not deployed on this instance");
  }
  SimTime now = engine_->now();
  AdvanceVirtualTime(now);
  if (running_.empty()) {
    busy_since_ = now;
    virtual_now_ = 0;
  }

  RunningQuery q;
  q.query_id = submission.query_id;
  q.tenant_id = submission.tenant_id;
  q.template_id = tmpl.id;
  q.submit_time = now;
  q.dedicated_latency = tmpl.DedicatedLatency(it->second, nodes_);
  q.reference_latency = submission.reference_latency;
  q.finish_tag = virtual_now_ + static_cast<double>(q.dedicated_latency);
  q.max_concurrency = 0;
  running_.push_back(q);

  // Write the new concurrency back into every running query's high-water
  // mark (the semantics MppdbInstance's peak deque answers in O(log k)).
  const int k = static_cast<int>(running_.size());
  for (RunningQuery& r : running_) {
    r.max_concurrency = std::max(r.max_concurrency, k);
  }

  uint64_t touched = 1 + RescheduleCompletion();
  if (SimCostGauge* gauge = engine_->cost_gauge()) {
    gauge->RecordSubmit(touched);
    gauge->RecordRunningSetSize(running_.size());
  }
  return Status::OK();
}

Status DenseExecutor::InjectNodeFailure() {
  if (failed_nodes_ >= nodes_ - 1) {
    return Status::FailedPrecondition(
        "instance would lose all serving capacity");
  }
  AdvanceVirtualTime(engine_->now());
  ++failed_nodes_;
  RescheduleCompletion();
  return Status::OK();
}

Status DenseExecutor::RepairNode() {
  if (failed_nodes_ == 0) {
    return Status::FailedPrecondition("no failed node to repair");
  }
  AdvanceVirtualTime(engine_->now());
  --failed_nodes_;
  RescheduleCompletion();
  return Status::OK();
}

SimDuration DenseExecutor::busy_time() const {
  if (running_.empty()) return busy_time_;
  return busy_time_ + (engine_->now() - busy_since_);
}

}  // namespace thrifty
