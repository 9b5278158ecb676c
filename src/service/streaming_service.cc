#include "service/streaming_service.h"

#include <algorithm>
#include <bit>
#include <set>
#include <utility>

#include "common/fnv.h"

namespace thrifty {

namespace {

void AppendIdList(const char* tag, const std::vector<GroupId>& ids,
                  std::string* out) {
  *out += tag;
  *out += '[';
  for (GroupId id : ids) {
    *out += std::to_string(id);
    *out += ',';
  }
  *out += ']';
}

}  // namespace

SlaBudgetController::SlaBudgetController(SlaControllerOptions options)
    : options_(options), sla_fraction_(options.initial_sla_fraction) {}

void SlaBudgetController::Observe(uint64_t queries, uint64_t violations) {
  if (queries > 0) {
    double observed =
        static_cast<double>(violations) / static_cast<double>(queries);
    double budget = 1.0 - sla_fraction_;
    budget += options_.gain * (options_.target_violation_rate - observed);
    double lo = 1.0 - options_.max_sla_fraction;
    double hi = 1.0 - options_.min_sla_fraction;
    if (budget < lo) budget = lo;
    if (budget > hi) budget = hi;
    sla_fraction_ = 1.0 - budget;
  }
  trajectory_.push_back(sla_fraction_);
}

uint64_t SlaBudgetController::TrajectoryFingerprint() const {
  std::string bytes;
  bytes.reserve(trajectory_.size() * 8);
  for (double p : trajectory_) {
    uint64_t raw = std::bit_cast<uint64_t>(p);
    for (int i = 0; i < 8; ++i) {
      bytes.push_back(static_cast<char>((raw >> (8 * i)) & 0xff));
    }
  }
  return Fnv1a64(bytes);
}

std::string CycleDecisionStream(const CycleDecision& decision) {
  std::string out;
  out += 'c';
  out += std::to_string(decision.cycle);
  out += 't';
  out += std::to_string(decision.time);
  out += 'e';
  out += std::to_string(decision.events_consumed);
  out += 'P';
  out += Hex64(std::bit_cast<uint64_t>(decision.sla_fraction));
  out += 'f';
  out += Hex64(decision.plan_fingerprint);
  AppendIdList("r", decision.resolved_groups, &out);
  AppendIdList("u", decision.untouched_groups, &out);
  AppendIdList("d", decision.dissolved_groups, &out);
  AppendIdList("n", decision.created_groups, &out);
  out += ';';
  return out;
}

StreamingService::StreamingService(StreamingServiceOptions options)
    : options_(options), controller_(options.controller) {}

Status StreamingService::Ingest(TenantEvent event) {
  if (!event_log_.empty() && event.time < event_log_.back().time) {
    return Status::InvalidArgument(
        "event time " + std::to_string(event.time) +
        " regresses behind the log tail " +
        std::to_string(event_log_.back().time));
  }
  event.sequence = event_log_.size();
  if (event.type == EventType::kCycleMark) {
    event_log_.push_back(event);
    ++events_since_mark_;
    return RunCycle(event_log_.back());
  }
  THRIFTY_RETURN_NOT_OK(Apply(event));
  event_log_.push_back(std::move(event));
  ++events_since_mark_;
  return Status::OK();
}

Status StreamingService::Apply(const TenantEvent& event) {
  switch (event.type) {
    case EventType::kRegister: {
      if (event.spec.id != event.tenant) {
        return Status::InvalidArgument(
            "register event for tenant " + std::to_string(event.tenant) +
            " carries spec of tenant " + std::to_string(event.spec.id));
      }
      if (event.spec.requested_nodes < 1) {
        return Status::InvalidArgument(
            "tenant " + std::to_string(event.tenant) +
            " requests fewer than 1 node");
      }
      if (registered_.count(event.tenant) || pending_new_.count(event.tenant)) {
        return Status::AlreadyExists("tenant " + std::to_string(event.tenant) +
                                     " is already registered");
      }
      pending_new_.emplace(event.tenant, event.spec);
      TenantLog log;
      log.tenant_id = event.tenant;
      log.entries = event.log_entries;
      log.SortEntries();
      history_[event.tenant] = std::move(log);
      return Status::OK();
    }
    case EventType::kDeregister: {
      auto pending = pending_new_.find(event.tenant);
      if (pending != pending_new_.end()) {
        // Registered and gone within one batch: cancel the registration
        // instead of handing the planner a tenant that is both new and
        // de-registered.
        pending_new_.erase(pending);
        history_.erase(event.tenant);
        return Status::OK();
      }
      if (!registered_.count(event.tenant)) {
        return Status::NotFound("tenant " + std::to_string(event.tenant) +
                                " is not registered");
      }
      if (!pending_dereg_.insert(event.tenant).second) {
        return Status::AlreadyExists("tenant " + std::to_string(event.tenant) +
                                     " already de-registered this cycle");
      }
      return Status::OK();
    }
    case EventType::kActivityDrift: {
      if (event.stride == 0) {
        return Status::InvalidArgument(
            "activity drift for tenant " + std::to_string(event.tenant) +
            " has zero stride");
      }
      auto it = history_.find(event.tenant);
      if (it == history_.end()) {
        return Status::NotFound("tenant " + std::to_string(event.tenant) +
                                " is not registered");
      }
      if (event.stride == 1) return Status::OK();
      std::vector<QueryLogEntry> thinned;
      thinned.reserve(it->second.entries.size() / event.stride + 1);
      for (size_t i = 0; i < it->second.entries.size(); i += event.stride) {
        thinned.push_back(it->second.entries[i]);
      }
      it->second.entries = std::move(thinned);
      return Status::OK();
    }
    case EventType::kSlaReport: {
      if (event.violations > event.queries) {
        return Status::InvalidArgument(
            "SLA report claims " + std::to_string(event.violations) +
            " violations out of " + std::to_string(event.queries) +
            " queries");
      }
      pending_queries_ += event.queries;
      pending_violations_ += event.violations;
      return Status::OK();
    }
    case EventType::kGroupFailure: {
      bool known = false;
      for (const auto& group : current_plan_.groups) {
        if (group.group_id == event.group) {
          known = true;
          break;
        }
      }
      if (!known) {
        return Status::NotFound("group " + std::to_string(event.group) +
                                " is not in the current plan");
      }
      pending_failed_groups_.insert(event.group);
      return Status::OK();
    }
    case EventType::kCycleMark:
      return Status::Internal("cycle marks are handled by Ingest");
  }
  return Status::Internal("unhandled event type");
}

Status StreamingService::RunCycle(const TenantEvent& mark) {
  controller_.Observe(pending_queries_, pending_violations_);
  double p = controller_.sla_fraction();
  if (p < min_sla_fraction_) min_sla_fraction_ = p;

  ReconsolidationInput input;
  input.current_plan = current_plan_;
  input.scaled_groups = pending_failed_groups_;
  input.new_tenants.reserve(pending_new_.size());
  for (const auto& [id, spec] : pending_new_) input.new_tenants.push_back(spec);
  input.deregistered = pending_dereg_;

  ReconsolidationOptions planner_options = options_.reconsolidation;
  planner_options.advisor.sla_fraction = p;
  ReconsolidationPlanner planner(planner_options);
  THRIFTY_ASSIGN_OR_RETURN(
      ReconsolidationOutput output,
      planner.Plan(input, CurrentHistory(), options_.history_begin,
                   options_.history_end));

  std::set<GroupId> old_ids;
  for (const auto& group : current_plan_.groups) old_ids.insert(group.group_id);
  std::set<GroupId> new_ids;
  for (const auto& group : output.plan.groups) new_ids.insert(group.group_id);
  std::vector<GroupId> dissolved;
  for (GroupId id : old_ids) {
    if (!new_ids.count(id)) dissolved.push_back(id);
  }
  std::vector<GroupId> created;
  for (GroupId id : new_ids) {
    if (!old_ids.count(id)) created.push_back(id);
  }

  if (master_ != nullptr) {
    THRIFTY_RETURN_NOT_OK(ApplyPlanDelta(dissolved, created, output.plan));
  }

  current_plan_ = std::move(output.plan);
  for (const auto& [id, spec] : pending_new_) registered_.emplace(id, spec);
  for (TenantId tenant : pending_dereg_) {
    registered_.erase(tenant);
    history_.erase(tenant);
  }
  pending_new_.clear();
  pending_dereg_.clear();
  pending_failed_groups_.clear();
  pending_queries_ = 0;
  pending_violations_ = 0;

  CycleDecision decision;
  decision.cycle = decisions_.size();
  decision.time = mark.time;
  decision.events_consumed = events_since_mark_;
  decision.sla_fraction = p;
  decision.plan_fingerprint = PlanFingerprint(current_plan_);
  decision.resolved_groups = output.resolved_groups;
  std::sort(decision.resolved_groups.begin(), decision.resolved_groups.end());
  decision.untouched_groups = output.untouched_groups;
  std::sort(decision.untouched_groups.begin(),
            decision.untouched_groups.end());
  decision.drifted_groups = output.drifted_groups;
  decision.absorber_groups = output.absorber_groups;
  decision.warm_groups_repaired = output.grouping.warm_groups_repaired;
  decision.warm_members_evicted = output.grouping.warm_members_evicted;
  decision.warm_members_missing = output.grouping.warm_members_missing;
  decision.dissolved_groups = std::move(dissolved);
  decision.created_groups = std::move(created);
  decision.solve_wall_ms = output.grouping.solve_seconds * 1000.0;
  decisions_.push_back(std::move(decision));

  events_since_mark_ = 0;
  last_mark_time_ = mark.time;
  any_cycle_ran_ = true;
  return Status::OK();
}

Status StreamingService::ApplyPlanDelta(const std::vector<GroupId>& dissolved,
                                        const std::vector<GroupId>& created,
                                        const DeploymentPlan& next_plan) {
  // Tear down first so the freed nodes are back in the hibernated pool
  // before the new groups draw from it.
  for (GroupId id : dissolved) {
    auto it = deployed_instances_.find(id);
    if (it == deployed_instances_.end()) continue;
    THRIFTY_RETURN_NOT_OK(master_->UndeployGroup(id, it->second));
    deployed_instances_.erase(it);
  }
  for (GroupId id : created) {
    const GroupDeployment* group = nullptr;
    for (const auto& candidate : next_plan.groups) {
      if (candidate.group_id == id) {
        group = &candidate;
        break;
      }
    }
    if (group == nullptr) {
      return Status::Internal("created group " + std::to_string(id) +
                              " missing from the next plan");
    }
    THRIFTY_ASSIGN_OR_RETURN(DeployedGroup deployed,
                             master_->DeployGroup(*group));
    std::vector<InstanceId> ids;
    ids.reserve(deployed.instances.size());
    for (const MppdbInstance* instance : deployed.instances) {
      ids.push_back(instance->id());
    }
    deployed_instances_.emplace(id, std::move(ids));
  }
  return Status::OK();
}

Result<bool> StreamingService::Tick() {
  if (clock_ == nullptr) {
    return Status::FailedPrecondition(
        "no clock attached; AttachClock before Tick");
  }
  SimTime now = clock_->Now();
  if (any_cycle_ran_ && now < last_mark_time_ + options_.cycle_period) {
    return false;
  }
  if (!event_log_.empty() && now < event_log_.back().time) {
    return Status::InvalidArgument(
        "clock " + std::to_string(now) + " is behind the event log tail " +
        std::to_string(event_log_.back().time));
  }
  THRIFTY_RETURN_NOT_OK(Ingest(MakeCycleMarkEvent(now)));
  return true;
}

Result<StreamingService> StreamingService::Replay(
    std::string_view encoded_log, StreamingServiceOptions options,
    DeploymentMaster* master) {
  THRIFTY_ASSIGN_OR_RETURN(std::vector<TenantEvent> events,
                           DecodeEventLog(encoded_log));
  StreamingService service(std::move(options));
  if (master != nullptr) service.AttachDeployment(master);
  for (TenantEvent& event : events) {
    THRIFTY_RETURN_NOT_OK(service.Ingest(std::move(event)));
  }
  return service;
}

uint64_t StreamingService::DecisionFingerprint() const {
  std::string stream;
  for (const CycleDecision& decision : decisions_) {
    stream += CycleDecisionStream(decision);
  }
  return Fnv1a64(stream);
}

std::vector<TenantSpec> StreamingService::RegisteredSpecs() const {
  std::vector<TenantSpec> specs;
  specs.reserve(registered_.size());
  for (const auto& [id, spec] : registered_) specs.push_back(spec);
  return specs;
}

std::vector<TenantLog> StreamingService::CurrentHistory() const {
  std::vector<TenantLog> history;
  history.reserve(history_.size());
  for (const auto& [id, log] : history_) history.push_back(log);
  return history;
}

std::vector<InstanceId> StreamingService::InstancesOf(GroupId group) const {
  auto it = deployed_instances_.find(group);
  if (it == deployed_instances_.end()) return {};
  return it->second;
}

}  // namespace thrifty
