// Thrifty benchmark program.
//
//   perfbench --workload plan_batch|stream_churn|serve_replay --seed N
//             --seconds S --trace 0|1 [--scale full|toy] [--trace-out FILE]
//
// Runs repetitions of one workload until S seconds have passed (at least
// kMinRepetitions). Every repetition regenerates its inputs from the seed,
// checks its outputs, and must reproduce the first repetition's input and
// output fingerprints. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end metrics, measured with
// tracing off. With --trace 1 untraced and traced repetitions take turns
// for S seconds; the metrics are the per-layer numbers of the traced
// repetitions plus the tracing overhead (traced - untraced) of every
// end-to-end metric. The exit code is 0 when every check passed, 1 when one
// failed, 2 on bad usage.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "workload_common.h"

namespace perfbench {
namespace {

constexpr size_t kMinRepetitions = 2;
/// setup_s is the median of at least this many setups per block.
constexpr size_t kSetupSamples = 5;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool toy = false;
  std::string trace_out;
};

const std::vector<std::string> kLayers = {
    "workload", "activity", "placement", "core",    "service",
    "routing",  "mppdb",    "sim",       "scaling", "bench"};

/// Every per-layer metric, in output order. A workload reports 0 for the
/// layers it does not exercise, so every traced run prints the same set.
std::vector<std::pair<std::string, std::string>> LayerCatalog() {
  std::vector<std::pair<std::string, std::string>> catalog = {
      {"workload.compose_s", "s"},
      {"activity.nonzero_words", "count"},
      {"placement.solve_s", "s"},
      {"placement.signature_s", "s"},
      {"placement.shard_solve_s", "s"},
      {"placement.merge_s", "s"},
      {"placement.phase_coverage", "fraction"},
      {"placement.merge_share", "fraction"},
      {"placement.merge_pool_share", "fraction"},
      {"placement.shards", "count"},
      {"placement.groups_before_merge", "count"},
      {"placement.groups_reopened", "count"},
      {"placement.merge_pool_tenants", "count"},
      {"placement.verify_s", "s"},
      {"placement.build_plan_s", "s"},
      {"core.advise_s", "s"},
      {"core.delta_solve_ms_p50", "ms"},
      {"core.delta_solve_ms_p95", "ms"},
      {"core.delta_solve_ms_mean", "ms"},
      {"core.resolve_share", "fraction"},
      {"core.groups_created", "count"},
      {"core.groups_dissolved", "count"},
      {"core.submit_us_p50", "us"},
      {"core.submit_us_p99", "us"},
      {"core.norm_perf_p99", "ratio"},
      {"service.cycles", "count"},
      {"service.cycle_ms_mean", "ms"},
      {"service.cycle_history_copy_ms_mean", "ms"},
      {"service.cycle_rest_ms_mean", "ms"},
      {"service.cycle_overhead_ms_p50", "ms"},
      {"service.ingest_us_register", "us"},
      {"service.ingest_us_deregister", "us"},
      {"service.ingest_us_drift", "us"},
      {"service.ingest_us_sla_report", "us"},
      {"service.encode_s", "s"},
      {"service.decode_s", "s"},
      {"service.event_log_mb", "MB"},
      {"service.replay_s", "s"},
      {"mppdb.nodes_in_use", "count"},
      {"mppdb.submits", "count"},
      {"mppdb.completion_events", "count"},
      {"mppdb.touched_per_event", "ratio"},
      {"mppdb.peak_running_set", "count"},
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.other_s", "s"},
      {"routing.route_tenant_affinity", "count"},
      {"routing.route_tuning_free", "count"},
      {"routing.route_other_free", "count"},
      {"routing.route_overflow", "count"},
      {"routing.route_dedicated", "count"},
      {"routing.overflow_share", "fraction"},
      {"scaling.actions", "count"},
      {"scaling.identification_s", "s"},
  };
  for (const std::string& layer : kLayers) {
    catalog.push_back({layer + ".self_s", "s"});
  }
  return catalog;
}

[[noreturn]] void Usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem
            << "\nusage: perfbench --workload plan_batch|stream_churn|"
               "serve_replay --seed N --seconds S --trace 0|1 "
               "[--scale full|toy] [--trace-out FILE]\n";
  std::exit(2);
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0' && text[0] != '-';
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value for " + flag);
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &options.seed)) Usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0) {
        Usage("--seconds needs a positive integer");
      }
      options.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        Usage("--trace needs 0 or 1");
      }
      options.trace = value[0] - '0';
    } else if (flag == "--scale") {
      if (std::strcmp(value, "full") != 0 && std::strcmp(value, "toy") != 0) {
        Usage("--scale needs full or toy");
      }
      options.toy = std::strcmp(value, "toy") == 0;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      Usage("unknown flag " + flag);
    }
  }
  if (options.workload.empty()) Usage("--workload is required");
  if (options.seconds == 0) Usage("--seconds is required");
  if (options.trace < 0) Usage("--trace is required");
  return options;
}

/// Repetitions run with tracing on or off.
struct Block {
  bool traced = false;
  std::vector<Repetition> reps;
  /// Extra setup-only repetitions, run when the block had fewer than
  /// kSetupSamples full ones.
  std::vector<Repetition> setups;
};

Repetition RunOne(Workload* workload, Tracer* tracer, bool traced,
                  bool setup_only, uint32_t* run_id) {
  tracer->set_enabled(traced);
  tracer->set_run_id((*run_id)++);
  Repetition rep = workload->Run(tracer, setup_only);
  if (traced && !setup_only) {
    const auto self = tracer->SelfSecondsByLayer(tracer->run_id());
    for (const std::string& layer : kLayers) {
      auto it = self.find(layer);
      rep.layer.push_back(
          {layer + ".self_s", it == self.end() ? 0.0 : it->second, "s"});
    }
  }
  return rep;
}

/// Runs repetitions until `seconds` have passed and every block has at
/// least `min_reps`. The blocks take turns (untraced, traced, untraced,
/// ...), so a traced run compares both under the same machine conditions.
/// Stops early after a failed repetition.
void RunBlocks(Workload* workload, Tracer* tracer,
               const std::vector<Block*>& blocks, double seconds,
               size_t min_reps, uint32_t* run_id) {
  const Clock::time_point start = Clock::now();
  while (blocks.back()->reps.size() < min_reps ||
         SecondsSince(start) < seconds) {
    for (Block* block : blocks) {
      Repetition rep = RunOne(workload, tracer, block->traced,
                              /*setup_only=*/false, run_id);
      std::printf("repetition %u%s: setup %.4f s, work %.4f s, %zu calls, "
                  "%.0f items\n",
                  *run_id - 1, block->traced ? " (traced)" : "", rep.setup_s,
                  rep.work_s, rep.call_ms.size(), rep.items);
      const bool failed = rep.failed > 0;
      block->reps.push_back(std::move(rep));
      if (failed) return;
    }
  }
  for (Block* block : blocks) {
    while (block->reps.size() + block->setups.size() < kSetupSamples) {
      block->setups.push_back(RunOne(workload, tracer, block->traced,
                                     /*setup_only=*/true, run_id));
    }
  }
}

/// The end-to-end metrics of a block of repetitions.
std::vector<Metric> EndToEnd(const Block& block) {
  if (block.reps.empty()) return EndToEnd(Block{false, {Repetition()}, {}});
  std::vector<double> setup;
  std::vector<double> calls;
  std::vector<double> throughput;
  for (const Repetition& rep : block.setups) setup.push_back(rep.setup_s);
  for (const Repetition& rep : block.reps) {
    setup.push_back(rep.setup_s);
    calls.insert(calls.end(), rep.call_ms.begin(), rep.call_ms.end());
    if (rep.work_s > 0) throughput.push_back(rep.items / rep.work_s);
  }
  const Repetition& first = block.reps.front();
  return {
      {"setup_s", Median(setup), "s"},
      {"latency_p50_ms", Percentile(calls, 0.5), "ms"},
      {"latency_p95_ms", Percentile(calls, 0.95), "ms"},
      {"throughput_per_s", Median(throughput), "1/s"},
      {"effectiveness", first.effectiveness, "fraction"},
      {"sla_attainment", first.sla_attainment, "fraction"},
      {"peak_rss_mb", first.peak_rss_mb, "MB"},
  };
}

/// Counts, checks and cross-repetition identity over every block.
struct Verdict {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

Verdict Judge(const std::vector<const Block*>& blocks,
              const Repetition& final_checks) {
  Verdict verdict;
  auto add = [&verdict](const Repetition& rep) {
    verdict.attempted += rep.attempted;
    verdict.failed += rep.failed;
    verdict.failures.insert(verdict.failures.end(), rep.failures.begin(),
                            rep.failures.end());
  };
  add(final_checks);
  const Repetition* first = nullptr;
  for (const Block* block : blocks) {
    for (const Repetition& rep : block->setups) add(rep);
    for (const Repetition& rep : block->reps) {
      add(rep);
      if (first == nullptr) {
        first = &rep;
        continue;
      }
      ++verdict.attempted;
      if (rep.fingerprint != first->fingerprint ||
          rep.effectiveness != first->effectiveness ||
          rep.sla_attainment != first->sla_attainment) {
        ++verdict.failed;
        verdict.failures.push_back(
            "check failed: repetition outputs differ: [" + rep.fingerprint +
            "] vs [" + first->fingerprint + "]");
      }
    }
  }
  return verdict;
}

std::string FormatNumber(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    std::printf("  %-40s %20s %s\n", metric.name.c_str(),
                FormatNumber(metric.value).c_str(), metric.unit.c_str());
  }
}

std::string ResultJson(const Verdict& verdict,
                       const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += verdict.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(verdict.attempted);
  json += ", \"failed\": " + std::to_string(verdict.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            FormatNumber(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

int Main(int argc, char** argv) {
  const Options options = ParseArgs(argc, argv);
  const Scale scale = options.toy ? Scale::Toy() : Scale::Full();
  std::unique_ptr<Workload> workload;
  if (options.workload == "plan_batch") {
    workload = MakePlanBatch(options.seed, scale);
  } else if (options.workload == "stream_churn") {
    workload = MakeStreamChurn(options.seed, scale);
  } else if (options.workload == "serve_replay") {
    workload = MakeServeReplay(options.seed, scale);
  } else {
    Usage("unknown workload " + options.workload);
  }

  Tracer tracer;
  uint32_t run_id = 0;
  std::vector<Metric> metrics;
  Block untraced;
  Block traced;
  traced.traced = true;
  std::vector<const Block*> blocks = {&untraced};
  if (options.trace == 0) {
    RunBlocks(workload.get(), &tracer, {&untraced}, options.seconds,
              kMinRepetitions, &run_id);
  } else {
    RunBlocks(workload.get(), &tracer, {&untraced, &traced}, options.seconds,
              kMinRepetitions, &run_id);
    blocks.push_back(&traced);
  }
  tracer.set_enabled(options.trace == 1);
  tracer.set_run_id(run_id++);
  Repetition final_checks;
  workload->FinalChecks(&tracer, &final_checks);

  if (options.trace == 0) {
    metrics = EndToEnd(untraced);
  } else {
    std::map<std::string, std::vector<double>> values;
    for (const Metric& metric : final_checks.layer) {
      values[metric.name].push_back(metric.value);
    }
    for (const Repetition& rep : traced.reps) {
      for (const Metric& metric : rep.layer) {
        values[metric.name].push_back(metric.value);
      }
    }
    for (const auto& [name, unit] : LayerCatalog()) {
      auto it = values.find(name);
      metrics.push_back(
          {name, it == values.end() ? 0.0 : Median(it->second), unit});
    }
    const std::vector<Metric> base = EndToEnd(untraced);
    const std::vector<Metric> with_tracing = EndToEnd(traced);
    for (size_t i = 0; i < base.size(); ++i) {
      // Peak RSS is a process-wide high-water mark, so the traced
      // repetitions cannot be told apart from the untraced ones by it; the
      // memory tracing costs is what the tracer holds.
      const double overhead =
          base[i].name == "peak_rss_mb"
              ? static_cast<double>(tracer.MemoryBytes()) / (1024.0 * 1024.0)
              : with_tracing[i].value - base[i].value;
      metrics.push_back(
          {"bench.trace_overhead." + base[i].name, overhead, base[i].unit});
    }
    metrics.push_back(
        {"bench.spans_per_repetition",
         static_cast<double>(tracer.calls()) /
             static_cast<double>(std::max<size_t>(1, traced.reps.size())),
         "count"});
    if (!options.trace_out.empty() && !tracer.WriteCsv(options.trace_out)) {
      std::cerr << "perfbench: could not write spans to " << options.trace_out
                << "\n";
    }
  }

  const Verdict verdict = Judge(blocks, final_checks);
  size_t samples = 0;
  for (const Repetition& rep : untraced.reps) samples += rep.call_ms.size();
  std::printf("workload %s, scale %s, seed %llu, %zu untraced + %zu traced "
              "repetitions, %zu latency samples\n",
              options.workload.c_str(), options.toy ? "toy" : "full",
              static_cast<unsigned long long>(options.seed),
              untraced.reps.size(), traced.reps.size(), samples);
  std::printf("inputs and outputs: %s\n",
              untraced.reps.front().fingerprint.c_str());
  PrintMetrics(metrics);
  for (const std::string& failure : verdict.failures) {
    std::printf("FAIL %s\n", failure.c_str());
  }
  std::printf("%s\n", ResultJson(verdict, metrics).c_str());
  std::fflush(stdout);
  return verdict.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
