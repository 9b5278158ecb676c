// SIMD kernel bench: per-word timings of every simd:: primitive at span
// lengths 8 / 64 / 1024 words, dispatched target vs in-process forced
// scalar, plus two end-to-end argmin candidate evaluations
// (GroupLevelSet::EvaluateAddCompare) under both targets: a self-incumbent
// tie, which evaluates every level, and a loser pruned at the top levels —
// the common case of an argmin scan.
//
// Two claims are checked, with different strictness:
//  * Parity (always enforced): the dispatched kernels produce bit-identical
//    checksums to the scalar reference, and the argmin returns identical
//    level popcounts. A mismatch fails the bench on any hardware.
//  * Speedup (enforced only when dispatch resolved to avx2/neon): the
//    popcount-family kernels at 1024 words must average >= 2x over forced
//    scalar. On scalar-only hardware (or under THRIFTY_FORCE_SCALAR) the
//    gate is skipped and recorded as such — parity is the portable claim.
//
// The results table holds only deterministic cells (kernel checksums), so
// its fingerprint is machine-independent; timings and the resolved dispatch
// target are reported as metrics/info. The `cpu_avx2` info line records
// whether the runner can execute AVX2 at all — CI reads it to know whether
// the speedup gate was live.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "activity/activity_vector.h"
#include "activity/level_set.h"
#include "bench_util.h"
#include "common/bitmap.h"
#include "common/fnv.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace {

using thrifty::Rng;
using thrifty::SecondsSince;
using thrifty::simd::Target;

/// One timed primitive: runs `body` (which must fold its result into the
/// returned accumulator so the loop cannot be dead-code-eliminated) enough
/// times to amortize clock overhead, returning ns per processed word.
template <typename Body>
double TimeKernel(size_t words, Body&& body, uint64_t* checksum) {
  // ~16M words of traffic per measurement keeps even the 8-word case well
  // above timer resolution while finishing in milliseconds.
  const int iters = static_cast<int>(16u * 1024 * 1024 / words) + 1;
  uint64_t acc = 0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) acc += body();
  double secs = SecondsSince(t0);
  *checksum ^= acc / static_cast<uint64_t>(iters);  // per-call value
  return secs * 1e9 / (static_cast<double>(iters) * words);
}

struct KernelInputs {
  std::vector<uint64_t> a, b, c;
  std::vector<uint64_t> dst;
  std::vector<size_t> delta;
  explicit KernelInputs(size_t n) : a(n), b(n), c(n), dst(n), delta(n, 0) {
    Rng rng(0x5EEDBA5E ^ n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Next();
      b[i] = rng.Next() | rng.Next();  // denser, like low level bitmaps
      c[i] = rng.Next() & rng.Next();  // sparser, like a candidate
    }
  }
};

struct KernelRun {
  std::string name;
  double ns_per_word = 0;
  uint64_t checksum = 0;
};

/// Times every primitive at span length `n` under the currently installed
/// dispatch target.
std::vector<KernelRun> RunAll(size_t n) {
  KernelInputs in(n);
  const auto& k = thrifty::simd::ActiveKernels();
  std::vector<KernelRun> runs;
  KernelRun r;

  r.name = "span_popcount";
  r.ns_per_word = TimeKernel(
      n, [&] { return k.span_popcount(in.a.data(), n); }, &r.checksum);
  runs.push_back(r);

  r = {};
  r.name = "and_popcount";
  r.ns_per_word = TimeKernel(
      n, [&] { return k.and_popcount(in.a.data(), in.b.data(), n); },
      &r.checksum);
  runs.push_back(r);

  r = {};
  r.name = "or_popcount_delta";
  r.ns_per_word = TimeKernel(
      n, [&] { return k.or_popcount_delta(in.a.data(), in.c.data(), n); },
      &r.checksum);
  runs.push_back(r);

  r = {};
  r.name = "or_and_popcount_delta";
  r.ns_per_word = TimeKernel(
      n,
      [&] {
        return k.or_and_popcount_delta(in.a.data(), in.b.data(), in.c.data(),
                                       n);
      },
      &r.checksum);
  runs.push_back(r);

  r = {};
  r.name = "or_and_bcast_store_delta";
  r.ns_per_word = TimeKernel(
      n,
      [&] {
        k.or_and_bcast_store_delta(in.a.data(), in.b.data(),
                                   0xF00DF00DF00DF00DULL, in.dst.data(),
                                   in.delta.data(), n);
        return in.dst[n - 1] + in.delta[0];
      },
      &r.checksum);
  std::fill(in.delta.begin(), in.delta.end(), 0);
  runs.push_back(r);

  r = {};
  r.name = "and_not_bcast_store_delta";
  r.ns_per_word = TimeKernel(
      n,
      [&] {
        k.and_not_bcast_store_delta(in.a.data(), in.b.data(),
                                    0xF00DF00DF00DF00DULL, in.dst.data(),
                                    in.delta.data(), n);
        return in.dst[n - 1] + in.delta[0];
      },
      &r.checksum);
  runs.push_back(r);

  return runs;
}

/// A synthetic group + candidate for the end-to-end argmin measurement:
/// office-hour-style activity blocks over ~120k epochs, plus a light tenant
/// (one short block) whose outcome the candidate loses to.
struct ArgminFixture {
  std::vector<thrifty::ActivityVector> members;
  thrifty::ActivityVector candidate;
  thrifty::ActivityVector light;
  thrifty::GroupLevelSet group{0};
  thrifty::GroupLevelSet::ColumnLookup lookup;

  ArgminFixture() {
    const size_t epochs = 120000;
    Rng rng(0xA6A11);
    auto make = [&](int id) {
      thrifty::DynamicBitmap bits(epochs);
      // ~8 active blocks of ~2k epochs each.
      for (int blk = 0; blk < 8; ++blk) {
        size_t begin = rng.NextBounded(epochs);
        bits.SetRange(begin, begin + 500 + rng.NextBounded(3000));
      }
      return thrifty::ActivityVector::FromBitmap(
          static_cast<thrifty::TenantId>(id), bits);
    };
    group = thrifty::GroupLevelSet(epochs);
    for (int id = 1; id <= 48; ++id) {
      members.push_back(make(id));
      group.Add(members.back());
    }
    candidate = make(1000);
    thrifty::DynamicBitmap bits(epochs);
    bits.SetRange(0, 64);
    light = thrifty::ActivityVector::FromBitmap(1001, bits);
    lookup.Sync(group);
  }

  /// Compares the candidate against `incumbent`; returns a checksum of the
  /// result and, only when it is <= 0 (the pops are then complete), of the
  /// would-be popcounts.
  uint64_t EvalOnce(thrifty::GroupLevelSet::EvalScratch* scratch,
                    const std::vector<size_t>& incumbent) const {
    int cmp = group.EvaluateAddCompare(candidate, incumbent, lookup, scratch);
    uint64_t acc = static_cast<uint64_t>(cmp + 2);
    if (cmp <= 0) {
      for (size_t p : scratch->pops) acc = acc * 1315423911u + p;
    }
    return acc;
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace thrifty;
  using namespace thrifty::bench;

  const std::string bench_name = "simd_kernels";
  BenchOptions options = ParseBenchArgs(argc, argv, bench_name,
                                        kNoSharedFlags);
  BenchReport report(bench_name, options);

  const Target dispatched = simd::ActiveTarget();
  const bool cpu_avx2 = simd::TargetSupported(Target::kAvx2);
  const bool cpu_neon = simd::TargetSupported(Target::kNeon);

  PrintBanner(
      "SIMD kernel dispatch: " + std::string(simd::TargetName()),
      std::string("per-word kernel timings at 8/64/1024-word spans, "
                  "dispatched vs forced scalar; parity always enforced, "
                  ">=2x speedup gated on a vector target. cpu_avx2=") +
          (cpu_avx2 ? "yes" : "no") + " cpu_neon=" +
          (cpu_neon ? "yes" : "no"));

  const size_t sizes[] = {8, 64, 1024};
  TablePrinter table({"kernel", "words", "checksum_simd", "checksum_scalar",
                      "parity"});

  bool parity_ok = true;
  // Geometric mean of the popcount-family speedups at 1024 words — the
  // spans the argmin actually streams (gathered level rows).
  double speedup_accum = 0;
  int speedup_terms = 0;

  for (size_t n : sizes) {
    simd::SetSimdTargetForTest(dispatched);
    std::vector<KernelRun> vec_runs = RunAll(n);
    simd::SetSimdTargetForTest(Target::kScalar);
    std::vector<KernelRun> sca_runs = RunAll(n);
    simd::SetSimdTargetForTest(dispatched);

    for (size_t i = 0; i < vec_runs.size(); ++i) {
      const KernelRun& v = vec_runs[i];
      const KernelRun& s = sca_runs[i];
      bool match = v.checksum == s.checksum;
      parity_ok = parity_ok && match;
      table.AddRow({v.name, std::to_string(n), Hex64(v.checksum),
                    Hex64(s.checksum), match ? "ok" : "MISMATCH"});
      std::string key = v.name + "_" + std::to_string(n);
      report.AddMetric(key + "_dispatch_ns_per_word", v.ns_per_word);
      report.AddMetric(key + "_scalar_ns_per_word", s.ns_per_word);
      double speedup = s.ns_per_word / v.ns_per_word;
      report.AddMetric(key + "_speedup", speedup);
      if (n == 1024 && v.name.find("popcount") != std::string::npos) {
        speedup_accum += std::log(speedup);
        ++speedup_terms;
      }
    }
  }

  // --- End-to-end argmin candidates under both targets ------------------
  // The self-incumbent ties at every level, so it is evaluated in full; the
  // light tenant's outcome beats the candidate at the top levels, so that
  // compare is pruned there.
  ArgminFixture fixture;
  struct ArgminCase {
    std::string name;
    std::vector<size_t> incumbent;
  };
  const ArgminCase argmin_cases[] = {
      {"argmin_candidate", fixture.group.EvaluateAdd(fixture.candidate)},
      {"argmin_pruned_loser", fixture.group.EvaluateAdd(fixture.light)},
  };
  GroupLevelSet::EvalScratch scratch;
  const Target argmin_targets[] = {dispatched, Target::kScalar};
  for (const ArgminCase& c : argmin_cases) {
    uint64_t checks[2];
    double us[2];
    for (int t = 0; t < 2; ++t) {
      simd::SetSimdTargetForTest(argmin_targets[t]);
      uint64_t acc = 0;
      const int iters = 2000;
      auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < iters; ++i) {
        // Multiplicative fold: an XOR of an even iteration count would
        // self-cancel to zero and make the parity check vacuous.
        acc = acc * 0x9E3779B97F4A7C15ULL +
              fixture.EvalOnce(&scratch, c.incumbent);
      }
      us[t] = SecondsSince(t0) * 1e6 / iters;
      checks[t] = acc;
    }
    simd::SetSimdTargetForTest(dispatched);
    bool match = checks[0] == checks[1];
    parity_ok = parity_ok && match;
    table.AddRow({c.name, "120000-epochs", Hex64(checks[0]), Hex64(checks[1]),
                  match ? "ok" : "MISMATCH"});
    report.AddMetric(c.name + "_dispatch_us", us[0]);
    report.AddMetric(c.name + "_scalar_us", us[1]);
    report.AddMetric(c.name + "_speedup", us[1] / us[0]);
  }

  table.Print(std::cout);

  const bool vector_dispatch = dispatched != Target::kScalar;
  double geomean =
      speedup_terms > 0 ? std::exp(speedup_accum / speedup_terms) : 1.0;
  bool speedup_ok = !vector_dispatch || geomean >= 2.0;

  std::cout << "\ndispatch target: " << simd::TargetName() << "\n";
  report.Gate("parity_ok", parity_ok, "kernel parity vs scalar reference");
  std::cout << "popcount-kernel geomean speedup at 1024 words: " << geomean
            << (vector_dispatch ? "x\n"
                                : "x (scalar dispatch: gate skipped)\n");
  if (vector_dispatch) {
    report.Gate("", speedup_ok, "popcount-kernel geomean speedup >= 2x");
  }

  report.SetResultsTable(table);
  report.AddText("dispatch_target", simd::TargetName());
  report.AddText("cpu_avx2", cpu_avx2 ? "yes" : "no");
  report.AddText("cpu_neon", cpu_neon ? "yes" : "no");
  report.AddMetric("popcount_geomean_speedup_1024", geomean);
  report.AddMetric("speedup_gate_live", vector_dispatch ? 1 : 0);
  report.AddText("speedup_gate",
                 vector_dispatch
                     ? (speedup_ok ? "geomean >= 2x over forced scalar"
                                   : "FAILED: geomean < 2x")
                     : "skipped: dispatch resolved to scalar "
                       "(no vector unit or THRIFTY_FORCE_SCALAR)");
  return report.Finish();
}
