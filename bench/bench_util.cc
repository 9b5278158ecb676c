#include "activity/activity_vector.h"
#include "activity/epoch.h"
#include "activity/streamed_epochizer.h"
#include "bench_util.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/sim_time.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "mppdb/catalog.h"
#include "workload/log_generator.h"
#include "workload/tenant_population.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace thrifty {
namespace bench {

namespace {

[[noreturn]] void PrintUsageAndExit(const std::string& bench_name,
                                    const std::vector<BenchFlag>& flags,
                                    int code) {
  std::ostream& os = code == 0 ? std::cout : std::cerr;
  os << "usage: " << bench_name << " [options]\n";
  for (const BenchFlag& flag : flags) {
    if (!flag.help.empty()) os << "  " << flag.name << flag.help << "\n";
  }
  os << "  --help  this message\n";
  std::exit(code);
}

void AppendJsonEscaped(const std::string& text, std::string* out) {
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

BenchFlag SwitchFlag(std::string name, bool* on, std::string help) {
  return BenchFlag{std::move(name), std::move(help),
                   [on](const std::string&) { return *on = true; }, false};
}

BenchFlag IntFlag(std::string name, int* out, int min, std::string help) {
  return BenchFlag{std::move(name), std::move(help),
                   [out, min](const std::string& value) {
                     return ParseIntAtLeast(value, min, out);
                   }};
}

bool ParseIntAtLeast(const std::string& text, int min, int* out) {
  char* end = nullptr;
  errno = 0;
  long value = std::strtol(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || errno == ERANGE || value < min ||
      value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

bool IsHex64(const std::string& text) {
  return text.size() == 16 &&
         std::all_of(text.begin(), text.end(), [](char c) {
           return std::isxdigit(static_cast<unsigned char>(c)) != 0;
         });
}

BenchFlag FingerprintPins::Flag(std::string help) {
  return BenchFlag{flag, std::move(help),
                   [this](const std::string& value) {
                     std::istringstream ss(value);
                     std::string fp;
                     expected.clear();
                     while (std::getline(ss, fp, ',')) {
                       if (!IsHex64(fp)) return false;
                       expected.push_back(fp);
                     }
                     return expected.size() == names.size();
                   }};
}

BenchOptions ParseBenchArgs(int argc, char** argv,
                            const std::string& bench_name, unsigned shared,
                            const std::vector<BenchFlag>& bench_flags) {
  BenchOptions options;
  bool no_json = false;
  std::vector<BenchFlag> flags;
  if (shared & kJobsFlag) {
    flags.push_back(IntFlag("--jobs", &options.jobs, 1,
                            "=N  run sweep trials on N worker threads "
                            "(default 1); results are bit-identical for "
                            "any N"));
    flags.push_back(IntFlag("-j", &options.jobs, 1, ""));
  }
  if (shared & kSolverJobsFlag) {
    std::string help =
        "=N  thread each solve / workload composition on N workers "
        "(default 1";
    if (shared & kJobsFlag) help += "; composes with --jobs";
    help += "); results are bit-identical for any N";
    flags.push_back(IntFlag("--solver-jobs", &options.solver_jobs, 1, help));
  }
  if (shared & kWarmStartFlag) {
    flags.push_back(SwitchFlag(
        "--warm-start", &options.warm_start,
        "  run an extra sequential two-step pass that seeds each sweep "
        "point with the previous point's plan and reports per-point time "
        "savings / effectiveness deltas (the cold fingerprinted results are "
        "unchanged)"));
  }
  if (shared & kSeedFlag) {
    flags.push_back(
        BenchFlag{"--seed", "=S  base seed for deterministic trial streams",
                  [&options](const std::string& value) {
                    char* end = nullptr;
                    options.seed = std::strtoull(value.c_str(), &end, 10);
                    options.seed_set = true;
                    return !value.empty() && *end == '\0';
                  }});
  }
  flags.push_back(BenchFlag{"--out",
                            "=DIR  directory for BENCH_" + bench_name +
                                ".json (default .)",
                            [&options](const std::string& value) {
                              options.out_dir = value;
                              return true;
                            }});
  flags.push_back(
      SwitchFlag("--no-json", &no_json, "  skip writing the JSON result file"));
  flags.insert(flags.end(), bench_flags.begin(), bench_flags.end());

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsageAndExit(bench_name, flags, 0);
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const BenchFlag& f) { return f.name == name; });
    if (flag == flags.end()) {
      std::cerr << bench_name << ": unknown argument '" << arg << "'\n";
      PrintUsageAndExit(bench_name, flags, 2);
    }
    std::string value;
    if (!flag->takes_value) {
      if (eq != std::string::npos) {
        std::cerr << bench_name << ": " << name << " takes no value\n";
        std::exit(2);
      }
    } else if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::cerr << bench_name << ": " << name << " needs a value\n";
      std::exit(2);
    }
    if (!flag->parse(value)) {
      std::cerr << bench_name << ": bad value for " << name << ": '" << value
                << "' (expected " << name << flag->help << ")\n";
      std::exit(2);
    }
  }
  options.write_json = !no_json;
  return options;
}

std::string RenderTable(const TablePrinter& table) {
  std::ostringstream os;
  table.Print(os);
  return os.str();
}

BenchReport::BenchReport(std::string bench_name, BenchOptions options)
    : bench_name_(std::move(bench_name)),
      options_(std::move(options)),
      start_(std::chrono::steady_clock::now()) {}

void BenchReport::AddMetric(const std::string& name, double value) {
  metrics_.emplace_back(name, value);
}

void BenchReport::AddText(const std::string& name, const std::string& value) {
  info_.emplace_back(name, value);
}

void BenchReport::SetResultsTable(const TablePrinter& table) {
  results_table_ = RenderTable(table);
}

double BenchReport::ElapsedSeconds() const { return SecondsSince(start_); }

void BenchReport::Gate(const std::string& metric, bool passed,
                       const std::string& label) {
  std::cout << label << ": " << (passed ? "PASS" : "FAIL") << "\n";
  if (!metric.empty()) AddMetric(metric, passed ? 1 : 0);
  if (!passed) failed_gates_.push_back(label);
}

void BenchReport::GatePins(const std::string& metric,
                           const FingerprintPins& pins,
                           const std::vector<uint64_t>& got) {
  if (pins.expected.empty()) return;
  bool match = true;
  for (size_t i = 0; i < pins.names.size(); ++i) {
    if (Hex64(got[i]) != pins.expected[i]) {
      match = false;
      std::cout << "fingerprint drift in " << pins.names[i] << ": expected "
                << pins.expected[i] << ", got " << Hex64(got[i]) << "\n";
    }
  }
  Gate(metric, match, "fingerprints match " + pins.flag);
}

size_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<size_t>(usage.ru_maxrss);  // already bytes on macOS
#else
  return static_cast<size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

int BenchReport::Finish() {
  if (!passed()) {
    std::cout << "\nFAIL:";
    for (size_t i = 0; i < failed_gates_.size(); ++i) {
      std::cout << (i == 0 ? " " : "; ") << failed_gates_[i];
    }
    std::cout << "\n";
  }
  double wall_seconds = ElapsedSeconds();
  size_t peak_rss = PeakRssBytes();
  if (peak_rss > 0) {
    metrics_.emplace_back("peak_rss_bytes", static_cast<double>(peak_rss));
  }
  const std::string fingerprint = Hex64(Fnv1a64(results_table_));

  std::cout << "\n[" << bench_name_ << "] wall " << FormatDouble(wall_seconds, 2)
            << "s, jobs=" << options_.jobs
            << ", solver_jobs=" << options_.solver_jobs
            << ", seed=" << options_.seed << ", results fingerprint "
            << fingerprint << "\n";
  if (options_.write_json) WriteJson(wall_seconds, fingerprint);
  return passed() ? 0 : 1;
}

void BenchReport::WriteJson(double wall_seconds,
                            const std::string& fingerprint) const {
  std::string json;
  json += "{\n";
  json += "  \"bench\": \"";
  AppendJsonEscaped(bench_name_, &json);
  json += "\",\n";
  json += "  \"jobs\": " + std::to_string(options_.jobs) + ",\n";
  json += "  \"solver_jobs\": " + std::to_string(options_.solver_jobs) + ",\n";
  json += "  \"seed\": " + std::to_string(options_.seed) + ",\n";
  json += "  \"wall_seconds\": " + JsonNumber(wall_seconds) + ",\n";
  json += "  \"results_fnv1a\": \"";
  json += fingerprint;
  json += "\",\n";
  json += "  \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    json += i == 0 ? "\n" : ",\n";
    json += "    \"";
    AppendJsonEscaped(metrics_[i].first, &json);
    json += "\": " + JsonNumber(metrics_[i].second);
  }
  json += metrics_.empty() ? "},\n" : "\n  },\n";
  json += "  \"info\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    json += i == 0 ? "\n" : ",\n";
    json += "    \"";
    AppendJsonEscaped(info_[i].first, &json);
    json += "\": \"";
    AppendJsonEscaped(info_[i].second, &json);
    json += "\"";
  }
  json += info_.empty() ? "},\n" : "\n  },\n";
  json += "  \"results_table\": \"";
  AppendJsonEscaped(results_table_, &json);
  json += "\"\n}\n";

  std::string path = options_.out_dir + "/BENCH_" + bench_name_ + ".json";
  std::ofstream file(path);
  if (!file) {
    std::cerr << bench_name_ << ": cannot write " << path << "\n";
    return;
  }
  file << json;
  std::cout << "[" << bench_name_ << "] wrote " << path << "\n";
}

Workload GenerateWorkload(const QueryCatalog& catalog,
                          const ExperimentConfig& config) {
  Rng rng(config.seed);
  SessionLibrary library(&catalog, {2, 4, 8, 16, 32},
                         config.sessions_per_class, rng.Fork(1));

  PopulationOptions pop;
  pop.zipf_theta = config.zipf_theta;
  Rng pop_rng = rng.Fork(2);
  auto tenants = GenerateTenantPopulation(config.num_tenants, pop, &pop_rng);
  if (!tenants.ok()) {
    std::cerr << "population generation failed: " << tenants.status() << "\n";
    std::exit(1);
  }

  Workload workload;
  workload.tenants = std::move(tenants).value();
  LogComposerOptions composer_options = config.composer;
  composer_options.horizon_days = config.horizon_days;
  composer_options.jobs = config.solver_jobs;
  LogComposer composer(&library, composer_options);
  Rng compose_rng = rng.Fork(3);
  auto activity = composer.ComposeActivity(&workload.tenants, &compose_rng);
  if (!activity.ok()) {
    std::cerr << "log composition failed: " << activity.status() << "\n";
    std::exit(1);
  }
  workload.activity = std::move(activity).value();
  workload.horizon_end = composer.horizon_end();

  // Activity-ratio diagnostics (the paper reports 8.9%-12% for Table 7.1
  // parameters).
  double total_active = 0;
  for (const auto& set : workload.activity) {
    total_active += static_cast<double>(set.TotalLength());
  }
  workload.average_active_ratio =
      total_active / (static_cast<double>(workload.horizon_end) *
                      static_cast<double>(workload.activity.size()));
  return workload;
}

std::vector<ActivityVector> EpochizeWorkload(const Workload& workload,
                                             SimDuration epoch_size,
                                             int jobs) {
  EpochConfig epochs;
  epochs.epoch_size = epoch_size;
  epochs.begin = 0;
  epochs.end = workload.horizon_end;
  std::vector<ActivityVector> vectors(workload.tenants.size());
  std::unique_ptr<ThreadPool> pool = MakeThreadPool(jobs);
  // Per-index slot writes keep the output byte-identical for any `jobs`.
  ParallelFor(pool.get(), workload.tenants.size(), [&](size_t i) {
    vectors[i] = EpochizeIntervals(workload.tenants[i].id,
                                   workload.activity[i], epochs);
  });
  return vectors;
}

void PrintBanner(const std::string& title, const std::string& description) {
  std::cout << "\n=== " << title << " ===\n" << description << "\n\n";
}

}  // namespace bench
}  // namespace thrifty
