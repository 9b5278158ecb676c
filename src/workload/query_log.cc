#include "workload/query_log.h"

#include <algorithm>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "activity/activity_vector.h"
#include "common/bitmap.h"

namespace thrifty {

IntervalSet TenantLog::ActivityIntervals() const {
  IntervalSet set;
  for (const auto& e : entries) {
    set.Add(e.submit_time, e.submit_time + e.observed_latency);
  }
  return set;
}

double TenantLog::ActiveRatio(SimTime begin, SimTime end) const {
  return ActivityIntervals().CoveredFraction(begin, end);
}

void TenantLog::SortEntries() {
  std::stable_sort(entries.begin(), entries.end(),
                   [](const QueryLogEntry& a, const QueryLogEntry& b) {
                     return a.submit_time < b.submit_time;
                   });
}

Status WriteLogsCsv(const std::vector<TenantLog>& logs, std::ostream& os) {
  os << "tenant_id,submit_ms,template_id,latency_ms,batch_id\n";
  for (const auto& log : logs) {
    for (const auto& e : log.entries) {
      os << log.tenant_id << ',' << e.submit_time << ',' << e.template_id
         << ',' << e.observed_latency << ',' << e.batch_id << '\n';
    }
  }
  if (!os) return Status::Internal("stream write failure");
  return Status::OK();
}

Result<std::vector<TenantLog>> ReadLogsCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    return Status::InvalidArgument("empty log file");
  }
  if (line.rfind("tenant_id,", 0) != 0) {
    return Status::InvalidArgument("missing CSV header");
  }
  std::map<TenantId, TenantLog> by_tenant;
  size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream ss(line);
    std::string field;
    long long values[5];
    for (int f = 0; f < 5; ++f) {
      if (!std::getline(ss, field, f < 4 ? ',' : '\n')) {
        return Status::InvalidArgument("malformed CSV at line " +
                                       std::to_string(line_no));
      }
      try {
        values[f] = std::stoll(field);
      } catch (...) {
        return Status::InvalidArgument("non-numeric field at line " +
                                       std::to_string(line_no));
      }
    }
    TenantId tid = static_cast<TenantId>(values[0]);
    TenantLog& log = by_tenant[tid];
    log.tenant_id = tid;
    QueryLogEntry e;
    e.submit_time = values[1];
    e.template_id = static_cast<TemplateId>(values[2]);
    e.observed_latency = values[3];
    e.batch_id = static_cast<int32_t>(values[4]);
    log.entries.push_back(e);
  }
  std::vector<TenantLog> out;
  out.reserve(by_tenant.size());
  for (auto& [tid, log] : by_tenant) {
    log.SortEntries();
    out.push_back(std::move(log));
  }
  return out;
}

double ConditionalActiveTenantRatio(
    const std::vector<ActivityVector>& vectors) {
  if (vectors.empty()) return 0;
  // Each tenant counts once per epoch (its sparse words already merge
  // intervals sharing an epoch); the busy-epoch set is the OR of all
  // tenants' words, so only one bit per epoch is ever materialized.
  DynamicBitmap busy_epochs(vectors.front().num_epochs());
  uint64_t total = 0;
  for (const ActivityVector& vector : vectors) {
    total += vector.ActiveEpochs();
    const auto& word_indices = vector.word_indices();
    const auto& word_bits = vector.word_bits();
    for (size_t i = 0; i < word_indices.size(); ++i) {
      busy_epochs.mutable_word(word_indices[i]) |= word_bits[i];
    }
  }
  size_t busy = busy_epochs.Popcount();
  if (busy == 0) return 0;
  return static_cast<double>(total) /
         (static_cast<double>(busy) * static_cast<double>(vectors.size()));
}

double AverageActiveTenantRatio(const std::vector<TenantLog>& logs,
                                SimTime begin, SimTime end) {
  if (logs.empty() || end <= begin) return 0;
  // Time-average of the active count == sum of per-tenant active durations.
  double total_active = 0;
  for (const auto& log : logs) {
    total_active += static_cast<double>(
        log.ActivityIntervals().Clip(begin, end).TotalLength());
  }
  return total_active /
         (static_cast<double>(end - begin) * static_cast<double>(logs.size()));
}

}  // namespace thrifty
