//===- bench/bench_kernel_cache.cpp - Warm-start planning latency -------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures what the persistent kernel cache (docs/KERNEL_CACHE.md) buys: a
/// cold plan pays a compiler fork/exec per native kernel; a warm plan with
/// the same cache directory maps the previously compiled artifact. For each
/// size the harness plans cold (fresh cache + wisdom), then warm (fresh
/// process-internal state, same cache files), and reports both latencies,
/// the speedup, and the counter proof: a warm plan performs zero compiler
/// invocations (native.compiles == 0, kernelcache.hits >= 1) and, when the
/// build has a GNU build-id, lowers nothing (no compile.optimize_ns
/// sample: its kernel comes from a plan record). Exits nonzero when a warm
/// plan ever reaches the compiler or lowers its formula.
///
/// A ballast arm then checks that planning cost does not grow with the
/// process: in each of 3 rounds it times 15 warm plans of fft 256 and of
/// fft 1024 with 0 and then with 256 MiB of touched heap ballast, and exits
/// nonzero when the median over the rounds of the 256 MiB / 0 MiB median
/// ratio exceeds 1.5; beside each it prints and records the median
/// plan.trial_ns. Every warm plan proves its kernel
/// in a fresh child of the resident trial runner; a fork of the planning
/// process would copy the ballast's page tables on every plan.
///
/// Environment knobs (in addition to BenchUtil's):
///   SPL_KC_MAXLG=<k>   largest FFT size 2^k to plan (default 10)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "perf/KernelCache.h"
#include "runtime/Planner.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <unistd.h>
#include <vector>

using namespace spl;
using namespace spl::bench;

namespace {

std::uint64_t counterValue(const char *Name) {
  return telemetry::counter(Name).value();
}

} // namespace

int main() {
  printPreamble("Kernel cache: cold vs warm planning",
                "content-addressed .so reuse across processes");

  JsonReport Report("kernel_cache");
  if (!nativeAllowed()) {
    std::puts("skip: no C compiler (or SPL_NO_NATIVE) — the kernel cache "
              "only holds native artifacts");
    Report.boolean("skipped", true);
    Report.write();
    return 0;
  }

  const std::int64_t MaxLg = envInt("SPL_KC_MAXLG", 10);
  const std::string Stem =
      "/tmp/spl-bench-kcache-" + std::to_string(getpid());
  const std::string CacheDir = Stem + ".cache";
  const std::string WisdomPath = Stem + ".wisdom";
  // The wisdom file goes with the lock its record file leaves beside it.
  auto RemoveFiles = [&] {
    std::filesystem::remove_all(CacheDir);
    std::remove(WisdomPath.c_str());
    std::remove((WisdomPath + ".lock").c_str());
  };
  RemoveFiles();

  telemetry::setMetricsEnabled(true);

  // Without a build-id there are no plan records, so warm plans lower.
  const bool Records = !perf::KernelCache::buildId().empty();
  std::printf("%8s  %12s  %12s  %8s  %10s  %8s  %8s\n", "N", "cold ms",
              "warm ms", "speedup", "compiles", "hits", "lowers");

  bool GateFailed = false;
  for (std::int64_t Lg = 4; Lg <= MaxLg; Lg += 2) {
    runtime::PlanSpec Spec;
    Spec.Size = std::int64_t(1) << Lg;

    // Each pass uses a fresh Planner (fresh wisdom object, fresh plan
    // registry) so only the on-disk caches carry state across them —
    // the same isolation a process restart would give.
    auto planOnce = [&](double &MsOut) -> bool {
      Diagnostics Diags;
      runtime::PlannerOptions POpts;
      POpts.WisdomPath = WisdomPath;
      POpts.KernelCacheDir = CacheDir;
      runtime::Planner Planner(Diags, POpts);
      Timer Wall;
      auto Plan = Planner.plan(Spec);
      MsOut = Wall.seconds() * 1e3;
      if (!Plan || Plan->backend() != runtime::Backend::Native) {
        std::fputs(Diags.dump().c_str(), stderr);
        return false;
      }
      Planner.saveWisdom();
      return true;
    };

    double ColdMs = 0, WarmMs = 0;
    if (!planOnce(ColdMs)) {
      std::printf("%8lld  plan did not reach the native tier; skipping\n",
                  static_cast<long long>(Spec.Size));
      continue;
    }

    std::uint64_t Compiles0 = counterValue("native.compiles");
    std::uint64_t Hits0 = counterValue("kernelcache.hits");
    std::uint64_t Lowers0 = telemetry::CompileOptimizeNs.snapshot().Count;
    if (!planOnce(WarmMs)) {
      GateFailed = true;
      continue;
    }
    std::uint64_t WarmCompiles = counterValue("native.compiles") - Compiles0;
    std::uint64_t WarmHits = counterValue("kernelcache.hits") - Hits0;
    std::uint64_t WarmLowers =
        telemetry::CompileOptimizeNs.snapshot().Count - Lowers0;

    std::printf("%8lld  %12.3f  %12.3f  %7.1fx  %10llu  %8llu  %8llu\n",
                static_cast<long long>(Spec.Size), ColdMs, WarmMs,
                WarmMs > 0 ? ColdMs / WarmMs : 0.0,
                static_cast<unsigned long long>(WarmCompiles),
                static_cast<unsigned long long>(WarmHits),
                static_cast<unsigned long long>(WarmLowers));
    const std::string Suffix = "_n" + std::to_string(Spec.Size);
    Report.num("cold_ms" + Suffix, ColdMs);
    Report.num("warm_ms" + Suffix, WarmMs);
    Report.num("warm_compiles" + Suffix, static_cast<double>(WarmCompiles));
    Report.num("warm_lowers" + Suffix, static_cast<double>(WarmLowers));

    // The acceptance gate: warm planning never forks the compiler, and
    // with plan records never lowers the formula either.
    if (WarmCompiles != 0 || WarmHits < 1 || (Records && WarmLowers != 0)) {
      std::printf("GATE FAILED at N=%lld: warm compiles=%llu hits=%llu "
                  "lowers=%llu\n",
                  static_cast<long long>(Spec.Size),
                  static_cast<unsigned long long>(WarmCompiles),
                  static_cast<unsigned long long>(WarmHits),
                  static_cast<unsigned long long>(WarmLowers));
      GateFailed = true;
    }
  }

  // Ballast arm: warm plans with and without 256 MiB of touched heap, in
  // rounds, so one noisy stretch of the host moves one round's ratio only.
  constexpr int Rounds = 3;
  constexpr int Reps = 15;
  constexpr std::size_t BallastMiB = 256;
  const std::int64_t BallastSizes[] = {256, 1024};
  /// Median wall ms and median plan.trial_ns (in ms) over Reps warm
  /// plans of fft N; a wall of -1 when a plan was not native.
  struct Medians {
    double PlanMs = -1, TrialMs = -1;
  };
  auto median = [](std::vector<double> V) {
    std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
    return V[V.size() / 2];
  };
  auto warmMedians = [&](std::int64_t N) {
    runtime::PlanSpec Spec;
    Spec.Size = N;
    std::vector<double> Ms, TrialMs;
    for (int R = 0; R != Reps; ++R) {
      Diagnostics Diags;
      runtime::PlannerOptions POpts;
      POpts.WisdomPath = WisdomPath;
      POpts.KernelCacheDir = CacheDir;
      runtime::Planner Planner(Diags, POpts);
      const std::uint64_t Trial0 = telemetry::PlanTrialNs.snapshot().Sum;
      Timer Wall;
      auto Plan = Planner.plan(Spec);
      Ms.push_back(Wall.seconds() * 1e3);
      TrialMs.push_back(
          static_cast<double>(telemetry::PlanTrialNs.snapshot().Sum - Trial0) /
          1e6);
      if (!Plan || Plan->backend() != runtime::Backend::Native)
        return Medians();
      Planner.saveWisdom();
    }
    return Medians{median(Ms), median(TrialMs)};
  };
  std::printf("\nwarm plan vs process size (per round, median of %d, ms; "
              "trial is the median plan.trial_ns)\n",
              Reps);
  std::printf("%8s  %5s  %12s  %12s  %8s  %12s  %12s\n", "N", "round",
              "0 MiB", "256 MiB", "ratio", "trial 0", "trial 256");
  bool BallastFailed = false;
  for (std::int64_t N : BallastSizes) {
    // One cold plan writes the record if the sweep above did not.
    bool Native = warmMedians(N).PlanMs >= 0;
    std::vector<double> Ratios, BareMs, HeavyMs, BareTrial, HeavyTrial;
    for (int Round = 0; Round != Rounds && Native; ++Round) {
      const Medians Bare = warmMedians(N);
      std::vector<char> Ballast(BallastMiB << 20, 1); // Touches every page.
      const Medians Heavy = warmMedians(N);
      Native = Bare.PlanMs > 0 && Heavy.PlanMs >= 0;
      Ratios.push_back(Native ? Heavy.PlanMs / Bare.PlanMs : 0.0);
      BareMs.push_back(Bare.PlanMs);
      HeavyMs.push_back(Heavy.PlanMs);
      BareTrial.push_back(Bare.TrialMs);
      HeavyTrial.push_back(Heavy.TrialMs);
      std::printf("%8lld  %5d  %12.3f  %12.3f  %7.2fx  %12.3f  %12.3f%s\n",
                  static_cast<long long>(N), Round, Bare.PlanMs, Heavy.PlanMs,
                  Ratios.back(), Bare.TrialMs, Heavy.TrialMs,
                  Ballast[Ballast.size() / 2] == 1 ? "" : " (ballast lost)");
    }
    const double Ratio = Native ? median(Ratios) : 0.0;
    const std::string Suffix = "_n" + std::to_string(N);
    if (Native) {
      std::printf("%8lld  %5s  %12.3f  %12.3f  %7.2fx  %12.3f  %12.3f\n",
                  static_cast<long long>(N), "med", median(BareMs),
                  median(HeavyMs), Ratio, median(BareTrial),
                  median(HeavyTrial));
      Report.num("warm_ballast0_ms" + Suffix, median(BareMs));
      Report.num("warm_ballast256_ms" + Suffix, median(HeavyMs));
      Report.num("warm_ballast0_trial_ms" + Suffix, median(BareTrial));
      Report.num("warm_ballast256_trial_ms" + Suffix, median(HeavyTrial));
      Report.num("warm_ballast_ratio" + Suffix, Ratio);
    }
    if (!Native || Ratio > 1.5) {
      std::printf("GATE FAILED at N=%lld: the median 256 MiB / 0 MiB ratio "
                  "of warm medians is above 1.5 (or a plan was not "
                  "native)\n",
                  static_cast<long long>(N));
      BallastFailed = true;
    }
  }

  RemoveFiles();

  Report.boolean("skipped", false);
  Report.boolean("gate_warm_zero_compiles", !GateFailed);
  Report.boolean("gate_warm_ballast", !BallastFailed);
  Report.write();

  if (BallastFailed) {
    std::puts("\nresult: FAIL — warm planning cost grows with the process");
    return 1;
  }
  if (GateFailed) {
    std::puts("\nresult: FAIL — a warm plan reached the compiler or "
              "lowered its formula");
    return 1;
  }
  std::puts(Records ? "\nresult: ok — every warm plan mapped its kernel "
                      "from a plan record with zero compiler invocations "
                      "and zero lowerings"
                    : "\nresult: ok — every warm plan mapped its kernel "
                      "from the cache with zero compiler invocations (no "
                      "build-id: plan records off)");
  return 0;
}
