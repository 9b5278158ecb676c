#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

double Seconds(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace

int64_t Tracer::Open(const char* name) {
  SpanRecord record;
  record.name = name;
  record.parent = open_.empty() ? -1 : open_.back();
  record.run_id = run_id_;
  record.start = Clock::now();
  spans_.push_back(record);
  const int64_t index = static_cast<int64_t>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::Close(int64_t index) {
  spans_[static_cast<size_t>(index)].end = Clock::now();
  open_.pop_back();
}

void Tracer::Tally(const char* name, Clock::time_point start) {
  const double seconds = Seconds(start, Clock::now());
  if (!open_.empty()) {
    spans_[static_cast<size_t>(open_.back())].tallied_s += seconds;
  }
  // Calls of one name repeat back to back; skip the map lookup for them.
  if (last_tally_ == nullptr || last_tally_name_ != name ||
      last_tally_run_ != run_id_) {
    last_tally_ = &tallies_[{run_id_, name}];
    last_tally_name_ = name;
    last_tally_run_ = run_id_;
  }
  last_tally_->micros.push_back(static_cast<float>(seconds * 1e6));
  last_tally_->total_s += seconds;
}

double Tracer::TotalSeconds(const std::string& name, uint32_t run_id) const {
  double total = 0;
  for (const SpanRecord& span : spans_) {
    if (span.run_id == run_id && name == span.name) {
      total += Seconds(span.start, span.end);
    }
  }
  return total;
}

std::vector<double> Tracer::TalliedMicros(const std::string& name,
                                          uint32_t run_id) const {
  auto it = tallies_.find({run_id, name});
  if (it == tallies_.end()) return {};
  return std::vector<double>(it->second.micros.begin(),
                             it->second.micros.end());
}

std::map<std::string, double> Tracer::SelfSecondsByLayer(
    uint32_t run_id) const {
  // Children nest strictly inside their parent and never overlap each
  // other (one thread records), so the covered part is their summed time.
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run_id != run_id) continue;
    const double duration = Seconds(spans_[i].start, spans_[i].end);
    self[i] += duration - spans_[i].tallied_s;
    if (spans_[i].parent >= 0) {
      self[static_cast<size_t>(spans_[i].parent)] -= duration;
    }
  }
  std::map<std::string, double> by_layer;
  auto layer_of = [](const std::string& name) {
    return name.substr(0, name.find('.'));
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].run_id == run_id) by_layer[layer_of(spans_[i].name)] += self[i];
  }
  for (const auto& [key, tally] : tallies_) {
    if (key.first == run_id) by_layer[layer_of(key.second)] += tally.total_s;
  }
  return by_layer;
}

size_t Tracer::calls() const {
  size_t calls = spans_.size();
  for (const auto& [key, tally] : tallies_) calls += tally.micros.size();
  return calls;
}

size_t Tracer::MemoryBytes() const {
  size_t bytes = spans_.capacity() * sizeof(SpanRecord);
  for (const auto& [key, tally] : tallies_) {
    bytes += tally.micros.capacity() * sizeof(float);
  }
  return bytes;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "run,id,parent,name,start_ns,end_ns\n");
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point() : spans_.front().start;
  auto ns = [&](Clock::time_point t) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin)
            .count());
  };
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(out, "%u,%zu,%lld,%s,%lld,%lld\n", span.run_id, i,
                 static_cast<long long>(span.parent), span.name,
                 ns(span.start), ns(span.end));
  }
  for (const auto& [key, tally] : tallies_) {
    std::fprintf(out, "%u,tally,-1,%s,%zu,%lld\n", key.first,
                 key.second.c_str(), tally.micros.size(),
                 static_cast<long long>(tally.total_s * 1e9));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
