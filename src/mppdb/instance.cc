#include "mppdb/instance.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace thrifty {

namespace {
// Remaining work at or below this (milliseconds at dedicated rate) counts as
// finished; covers floating-point residue from the share arithmetic.
constexpr double kDoneEpsilonMs = 1e-6;
}  // namespace

const char* InstanceStateToString(InstanceState state) {
  switch (state) {
    case InstanceState::kProvisioning:
      return "provisioning";
    case InstanceState::kLoading:
      return "loading";
    case InstanceState::kOnline:
      return "online";
    case InstanceState::kStopped:
      return "stopped";
  }
  return "unknown";
}

double QueryCompletion::NormalizedPerformance() const {
  if (reference_latency <= 0) return 0;
  return static_cast<double>(MeasuredLatency()) /
         static_cast<double>(reference_latency);
}

MppdbInstance::MppdbInstance(InstanceId id, int nodes, SimEngine* engine,
                             InstanceState initial_state)
    : id_(id), nodes_(nodes), engine_(engine), state_(initial_state) {
  assert(nodes >= 1);
  assert(engine != nullptr);
  last_progress_update_ = engine->now();
}

void MppdbInstance::SetState(InstanceState state) { state_ = state; }

void MppdbInstance::AddTenant(TenantId tenant, double data_gb) {
  assert(data_gb >= 0);
  tenant_data_gb_[tenant] = data_gb;
}

Status MppdbInstance::RemoveTenant(TenantId tenant) {
  if (IsServingTenant(tenant)) {
    return Status::FailedPrecondition("tenant has running queries");
  }
  if (tenant_data_gb_.erase(tenant) == 0) {
    return Status::NotFound("tenant not hosted on this instance");
  }
  return Status::OK();
}

bool MppdbInstance::HostsTenant(TenantId tenant) const {
  return tenant_data_gb_.count(tenant) > 0;
}

double MppdbInstance::TenantDataGb(TenantId tenant) const {
  auto it = tenant_data_gb_.find(tenant);
  return it == tenant_data_gb_.end() ? 0 : it->second;
}

double MppdbInstance::TotalDataGb() const {
  double total = 0;
  for (const auto& [tenant, gb] : tenant_data_gb_) total += gb;
  return total;
}

double MppdbInstance::SpeedFactor() const {
  return static_cast<double>(nodes_ - failed_nodes_) /
         static_cast<double>(nodes_);
}

void MppdbInstance::AdvanceVirtualTime(SimTime now) {
  size_t k = heap_.size();
  if (k > 0 && now > last_progress_update_) {
    double share = SpeedFactor() / static_cast<double>(k);
    virtual_now_ +=
        static_cast<double>(now - last_progress_update_) * share;
  }
  last_progress_update_ = now;
}

size_t MppdbInstance::HeapSiftUp(size_t index) {
  size_t moves = 0;
  while (index > 0) {
    size_t parent = (index - 1) / 2;
    if (!TagLess(heap_[index], heap_[parent])) break;
    std::swap(heap_[index], heap_[parent]);
    index = parent;
    ++moves;
  }
  return moves;
}

size_t MppdbInstance::HeapSiftDown(size_t index) {
  size_t moves = 0;
  const size_t n = heap_.size();
  while (true) {
    size_t smallest = 2 * index + 1;
    if (smallest >= n) break;
    size_t right = smallest + 1;
    if (right < n && TagLess(heap_[right], heap_[smallest])) smallest = right;
    if (!TagLess(heap_[smallest], heap_[index])) break;
    std::swap(heap_[index], heap_[smallest]);
    index = smallest;
    ++moves;
  }
  return moves;
}

void MppdbInstance::RecordConcurrencyPeak(uint64_t seq, int concurrency) {
  while (!concurrency_peaks_.empty() &&
         concurrency_peaks_.back().concurrency <= concurrency) {
    concurrency_peaks_.pop_back();
  }
  concurrency_peaks_.push_back({seq, concurrency});
}

int MppdbInstance::MaxConcurrencyDuring(const RunningQuery& q) const {
  int max_k = q.concurrency_at_admission;
  // First peak admitted after this query: the highest concurrency the
  // instance reached between the query's admission and now (entries are
  // increasing in seq and strictly decreasing in concurrency).
  auto it = std::upper_bound(
      concurrency_peaks_.begin(), concurrency_peaks_.end(), q.admission_seq,
      [](uint64_t seq, const ConcurrencyPeak& p) { return seq < p.seq; });
  if (it != concurrency_peaks_.end()) max_k = std::max(max_k, it->concurrency);
  return max_k;
}

QueryCompletion MppdbInstance::MakeCompletion(const RunningQuery& q,
                                              SimTime now) const {
  QueryCompletion c;
  c.query_id = q.query_id;
  c.tenant_id = q.tenant_id;
  c.template_id = q.template_id;
  c.instance_id = id_;
  c.submit_time = q.submit_time;
  c.finish_time = now;
  c.dedicated_latency = q.dedicated_latency;
  c.reference_latency = q.reference_latency;
  c.max_concurrency = MaxConcurrencyDuring(q);
  return c;
}

size_t MppdbInstance::RescheduleCompletion() {
  engine_->Cancel(completion_event_);
  completion_event_ = kInvalidEventId;
  if (heap_.empty()) return 0;
  // tag - V is monotone in the tag, so the heap top's remaining work is
  // exactly the minimum over all running queries, bit for bit.
  const double min_remaining = heap_.front().finish_tag - virtual_now_;
  double share = SpeedFactor() / static_cast<double>(heap_.size());
  // Wall time until the least-remaining query completes under the current
  // share. Ceil so the event never fires before the true completion.
  SimDuration wait = static_cast<SimDuration>(
      std::ceil(std::max(min_remaining, 0.0) / share));
  if (wait < 1 && min_remaining > kDoneEpsilonMs) wait = 1;
  completion_event_ = engine_->ScheduleAfter(
      wait, [this](SimTime t) { OnCompletionEvent(t); });
  return 1;
}

void MppdbInstance::OnCompletionEvent(SimTime now) {
  completion_event_ = kInvalidEventId;
  AdvanceVirtualTime(now);
  uint64_t touched = 0;
  // Pop every served query: the completion set is downward closed in tag
  // order, so popping stops at the first unserved top. The heap yields tag
  // order; callbacks fire in admission order (deterministic, and the order
  // the dense test oracle's stable sweep produces), hence the sort of the
  // (usually tiny) batch.
  std::vector<RunningQuery> batch;
  while (!heap_.empty()) {
    ++touched;
    if (heap_.front().finish_tag - virtual_now_ > kDoneEpsilonMs) break;
    batch.push_back(heap_.front());
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) touched += HeapSiftDown(0);
  }
  std::sort(batch.begin(), batch.end(),
            [](const RunningQuery& a, const RunningQuery& b) {
              return a.admission_seq < b.admission_seq;
            });
  std::vector<QueryCompletion> done;
  for (const RunningQuery& q : batch) done.push_back(MakeCompletion(q, now));
  for (const QueryCompletion& c : done) {
    auto it = running_per_tenant_.find(c.tenant_id);
    assert(it != running_per_tenant_.end());
    if (--it->second == 0) running_per_tenant_.erase(it);
  }
  completed_queries_ += done.size();
  if (heap_.empty() && !done.empty()) {
    busy_time_ += now - busy_since_;
  }
  touched += RescheduleCompletion();
  if (SimCostGauge* gauge = engine_->cost_gauge()) {
    gauge->RecordCompletionEvent(touched);
  }
  // Callbacks fire after internal state is consistent: a callback may submit
  // follow-up queries to this very instance.
  if (on_completion_) {
    for (const auto& c : done) on_completion_(c);
  }
}

Status MppdbInstance::Submit(const QuerySubmission& submission,
                             const QueryTemplate& tmpl) {
  if (state_ != InstanceState::kOnline) {
    return Status::Unavailable(std::string("instance is ") +
                               InstanceStateToString(state_));
  }
  auto it = tenant_data_gb_.find(submission.tenant_id);
  if (it == tenant_data_gb_.end()) {
    return Status::NotFound("tenant data not deployed on this instance");
  }
  SimTime now = engine_->now();
  AdvanceVirtualTime(now);

  if (heap_.empty()) {
    busy_since_ = now;
    // Rebase the virtual clock at every busy-period start: no running query
    // holds a tag, and a small |V| keeps tag - V exact for the integer-ms
    // work the workloads are built from. The peak deque is unreachable from
    // any future admission (all have larger seq), so it is dropped too.
    virtual_now_ = 0;
    concurrency_peaks_.clear();
  }

  RunningQuery q;
  q.query_id = submission.query_id;
  q.tenant_id = submission.tenant_id;
  q.template_id = tmpl.id;
  q.submit_time = now;
  q.dedicated_latency = tmpl.DedicatedLatency(it->second, nodes_);
  q.reference_latency = submission.reference_latency;
  q.admission_seq = ++admission_counter_;
  q.finish_tag = virtual_now_ + static_cast<double>(q.dedicated_latency);
  q.concurrency_at_admission = static_cast<int>(heap_.size()) + 1;

  heap_.push_back(q);
  uint64_t touched = 1 + HeapSiftUp(heap_.size() - 1);
  ++running_per_tenant_[q.tenant_id];
  RecordConcurrencyPeak(q.admission_seq, q.concurrency_at_admission);
  touched += RescheduleCompletion();
  if (SimCostGauge* gauge = engine_->cost_gauge()) {
    gauge->RecordSubmit(touched);
    gauge->RecordRunningSetSize(heap_.size());
  }
  return Status::OK();
}

bool MppdbInstance::IsServingTenant(TenantId tenant) const {
  return running_per_tenant_.count(tenant) > 0;
}

Status MppdbInstance::InjectNodeFailure() {
  if (failed_nodes_ >= nodes_ - 1) {
    return Status::FailedPrecondition(
        "instance would lose all serving capacity");
  }
  AdvanceVirtualTime(engine_->now());
  ++failed_nodes_;
  RescheduleCompletion();
  return Status::OK();
}

Status MppdbInstance::RepairNode() {
  if (failed_nodes_ == 0) {
    return Status::FailedPrecondition("no failed node to repair");
  }
  AdvanceVirtualTime(engine_->now());
  --failed_nodes_;
  RescheduleCompletion();
  return Status::OK();
}

SimDuration MppdbInstance::busy_time() const {
  if (heap_.empty()) return busy_time_;
  return busy_time_ + (engine_->now() - busy_since_);
}

}  // namespace thrifty
