// In-memory span recorder for the benchmark's traced runs.
//
// A span covers one call into a Thrifty layer and carries its name, start,
// end, parent span and run id (one run id per repetition). Span names are
// "<layer>.<call>", where <layer> is a src/ module (workload, activity,
// placement, core, service, routing, mppdb, sim, scaling) or "bench" for the
// benchmark's own code. Calls too frequent to keep one record each (a query
// submit, millions per run) are tallied instead: the tally keeps their
// count and durations per run and charges their time to the enclosing span,
// so self times stay exact. Everything stays in memory until WriteCsv at
// exit. A disabled tracer records nothing; a span on it costs one branch.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `since`.
inline double SecondsSince(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  uint32_t run_id() const { return run_id_; }
  void set_run_id(uint32_t run_id) { run_id_ = run_id; }

  /// Opens a span under the innermost open one; returns its index.
  int64_t Open(const char* name);
  void Close(int64_t index);
  /// Tallies one call of `name` that ran from `start` until now.
  void Tally(const char* name, Clock::time_point start);

  /// Σ duration of run `run_id`'s spans called `name`, in seconds.
  double TotalSeconds(const std::string& name, uint32_t run_id) const;
  /// Durations of run `run_id`'s tallied calls of `name`, in µs.
  std::vector<double> TalliedMicros(const std::string& name,
                                    uint32_t run_id) const;

  /// Run `run_id`'s self time per layer, in seconds: each span's duration
  /// minus the time its child spans and tallied calls cover, plus the
  /// tallied calls' own time, summed by the layer prefix of the name.
  std::map<std::string, double> SelfSecondsByLayer(uint32_t run_id) const;

  /// Spans plus tallied calls recorded so far.
  size_t calls() const;
  /// Bytes the recorded spans and tallies hold.
  size_t MemoryBytes() const;

  /// Writes one CSV row per span, run,id,parent,name,start_ns,end_ns (times
  /// relative to the first span), then one row per tally,
  /// run,tally,-1,name,calls,total_ns. Returns false on I/O failure.
  bool WriteCsv(const std::string& path) const;

 private:
  struct SpanRecord {
    const char* name = nullptr;
    Clock::time_point start;
    Clock::time_point end;
    int64_t parent = -1;
    uint32_t run_id = 0;
    /// Time of the tallied calls made inside this span, in seconds.
    double tallied_s = 0;
  };
  struct TallyRecord {
    std::vector<float> micros;
    double total_s = 0;
  };

  bool enabled_ = false;
  uint32_t run_id_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<int64_t> open_;
  std::map<std::pair<uint32_t, std::string>, TallyRecord> tallies_;
  TallyRecord* last_tally_ = nullptr;
  const char* last_tally_name_ = nullptr;
  uint32_t last_tally_run_ = 0;
};

/// RAII span: opens on construction, closes on destruction.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Open(name) : -1) {}
  ~Span() { End(); }
  /// Closes the span early; later calls and the destructor do nothing.
  void End() {
    if (tracer_ != nullptr) tracer_->Close(index_);
    tracer_ = nullptr;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

/// RAII tallied call (see Tracer::Tally).
class TalliedCall {
 public:
  TalliedCall(Tracer* tracer, const char* name)
      : tracer_(tracer->enabled() ? tracer : nullptr), name_(name) {
    if (tracer_ != nullptr) start_ = Clock::now();
  }
  ~TalliedCall() {
    if (tracer_ != nullptr) tracer_->Tally(name_, start_);
  }
  TalliedCall(const TalliedCall&) = delete;
  TalliedCall& operator=(const TalliedCall&) = delete;

 private:
  Tracer* tracer_;
  const char* name_;
  Clock::time_point start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
