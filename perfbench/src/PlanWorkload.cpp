//===- perfbench/src/PlanWorkload.cpp - Cold and warm planning ------------===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Each round plans every spec cold (a fresh Planner over an empty wisdom file
// and an empty kernel-cache directory), then warm several times (a new
// Planner over what the cold plan wrote, each after the previous plan is
// destroyed). This is the only workload whose timed phase runs search, the
// lower/opt pipeline, codegen and the C compiler. The process holds only
// small buffers, because fork cost (cc, the trial guard) grows with it.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstring>

using namespace spl;

namespace perfbench {
namespace {

constexpr int kWarmPerRound = 4;

/// The seeded spec mix: searched fft 2^5, 2^7, 2^10 and rdft 2^8, 2^12,
/// a searched wht 512, and a rule-planned dct2 64. Transforms and sizes
/// are fixed so every seed plans the same amount of work (a seeded DCT type
/// split the runs into two populations); the seed picks the order and all
/// input data.
std::vector<BenchSpec> planSpecs(std::uint64_t Seed) {
  std::mt19937_64 Gen(Seed);
  std::vector<BenchSpec> Specs;
  const std::pair<const char *, std::int64_t> Fixed[] = {
      {"fft", 32},  {"fft", 128},  {"fft", 1024}, {"rdft", 256},
      {"rdft", 4096}, {"wht", 512}, {"dct2", 64}};
  for (const auto &[Transform, Size] : Fixed) {
    BenchSpec B;
    B.Spec.Transform = Transform;
    B.Spec.Size = Size;
    Specs.push_back(B);
  }
  std::shuffle(Specs.begin(), Specs.end(), Gen);
  for (BenchSpec &B : Specs) {
    B.Label = B.Spec.Transform + std::to_string(B.Spec.Size);
    B.HowMany = std::max<std::int64_t>(1, 16384 / B.Spec.Size);
  }
  return Specs;
}

struct Prepared {
  BenchSpec B;
  Buffer X;
  std::unique_ptr<OracleCheck> Oracle;
  Pin ThePin;
};

/// Set-up: the seeded mix, its inputs and oracles, and one throwaway
/// cold + warm plan that brings the pipeline's lazy state in.
std::vector<Prepared> setUp(const Options &O, int Index, Outcome &Out) {
  std::vector<Prepared> Mix;
  std::mt19937_64 Gen(O.Seed * 7919 + 1);
  for (const BenchSpec &B : planSpecs(O.Seed)) {
    Prepared P;
    P.B = B;
    P.X = randomVector(Gen, inputExtent(B));
    P.Oracle = std::make_unique<OracleCheck>(B, O.Seed);
    Mix.push_back(std::move(P));
  }
  runtime::PlanSpec Warmup;
  Warmup.Transform = "fft";
  Warmup.Size = 16;
  const PlanDirs D =
      PlanDirs::fresh(O.WorkDir, "setup-" + std::to_string(Index));
  for (int I = 0; I != 2; ++I) {
    double Ms = 0;
    std::string Why;
    if (!planOnce(Warmup, D, Ms, Why))
      Out.fail(Why);
  }
  D.remove();
  return Mix;
}

} // namespace

void runPlanWorkload(const Options &O, Outcome &Out) {
  Tracer T(O.Trace);
  std::vector<double> SetupS;
  std::vector<Prepared> Mix;
  for (int I = 0; I != kSetups; ++I) {
    const Clock::time_point T0 = Clock::now();
    Mix = setUp(O, I, Out);
    SetupS.push_back(msSince(T0) / 1000.0);
  }

  SampleSet ColdPlan, WarmPlan, Mflops, BareWarm, SpannedWarm;
  SampleSet BatchNs, KernelNs;
  ReplaySet ColdReplay, WarmReplay;
  std::map<std::string, double> Flops, Bytes;
  std::int64_t Plans = 0;
  // Whole rounds only, so every spec gets the same number of samples.
  const Clock::time_point Start = Clock::now();
  for (int Round = 0; Round == 0 || msSince(Start) < O.Seconds * 1000.0;
       ++Round) {
    for (Prepared &P : Mix) {
      const BenchSpec &B = P.B;
      Buffer Y(outputExtent(B)), Verified;
      const PlanDirs D = PlanDirs::fresh(O.WorkDir, "plan-" + B.Label);
      std::string Why;
      double Ms = 0;

      // Cold: empty wisdom and kernel cache; checked against the oracle.
      Out.attempt();
      ++Plans;
      std::shared_ptr<runtime::Plan> Plan;
      {
        Tracer::Scope Sc(T, "plan.cold");
        Plan = planOnce(B.Spec, D, Ms, Why);
      }
      if (!Plan || !Why.empty()) {
        Out.fail(Why);
        D.remove();
        continue;
      }
      ColdPlan.add(B.Label, Ms);
      if (!P.ThePin.check(*Plan, runtime::Backend::Native, Why)) {
        Out.fail(Why);
      } else {
        executeSpec(*Plan, B, Y.data(), P.X.data());
        if (!P.Oracle->check(Y.data(), P.X.data(), Why))
          Out.fail(Why);
        else
          Verified = Y;
      }
      if (T.enabled()) {
        const PlanDirs Empty = PlanDirs::fresh(O.WorkDir, "replay-cold");
        Tracer::Scope Sc(T, "replay.cold");
        ColdReplay[B.Label].push_back(replayPlan(*Plan, Empty, T));
        Sc.stop();
        Empty.remove();
      }
      Plan.reset();

      // Warm: new Planners over what the cold plan wrote.
      for (int W = 0; W != kWarmPerRound; ++W) {
        Out.attempt();
        ++Plans;
        // Traced runs alternate: odd warm plans with spans and telemetry,
        // even ones with neither.
        const bool Spanned = T.enabled() && (W & 1);
        T.setRecording(Spanned);
        {
          Tracer::Scope Sc(T, "plan.warm");
          Plan = planOnce(B.Spec, D, Ms, Why);
        }
        T.setRecording(true);
        if (!Plan) {
          Out.fail(Why);
          continue;
        }
        WarmPlan.add(B.Label, Ms);
        (Spanned ? SpannedWarm : BareWarm).add(B.Label, Ms);
        if (!P.ThePin.check(*Plan, runtime::Backend::Native, Why)) {
          Out.fail(Why);
          Plan.reset();
          continue;
        }
        std::fill(Y.begin(), Y.end(), 0.0);
        executeSpec(*Plan, B, Y.data(), P.X.data());
        if (Verified.empty() ||
            std::memcmp(Y.data(), Verified.data(),
                        Y.size() * sizeof(double)) != 0) {
          Out.fail(B.Label + ": warm plan output differs from the verified "
                             "cold plan output");
        }
        // The generated code's speed: the same batch again, median of 5.
        std::vector<double> Runs;
        for (int R = 0; R != 5; ++R) {
          const Clock::time_point T0 = Clock::now();
          executeSpec(*Plan, B, Y.data(), P.X.data());
          Runs.push_back(msSince(T0));
        }
        const double ExecMs = median(Runs);
        Mflops.add(B.Label, pseudoFlops(B.Spec) * double(B.HowMany) /
                                (ExecMs * 1e3));
        if (T.enabled() && W == 0) {
          BatchNs.add(B.Label, ExecMs * 1e6 / double(B.HowMany));
          KernelNs.add(B.Label, kernelOnlyNs(*Plan, B, 5));
          Flops[B.Label] = kernelFlops(*Plan);
          Bytes[B.Label] = kernelBytes(*Plan);
          Tracer::Scope Sc(T, "replay.warm");
          WarmReplay[B.Label].push_back(replayPlan(*Plan, D, T));
        }
        Plan.reset();
      }
      D.remove();
    }
  }
  const double Elapsed = msSince(Start) / 1000.0;

  for (const Prepared &P : Mix) {
    auto Med = [&](const SampleSet &S) {
      auto It = S.all().find(P.B.Label);
      return std::to_string(It == S.all().end() ? 0.0 : median(It->second));
    };
    Out.note("plan " + P.B.Label + ": cold " + Med(ColdPlan) + " ms, warm " +
             Med(WarmPlan) + " ms, " + Med(Mflops) +
             " MFlop/s; pinned winner " + hashText(P.ThePin.Formula) +
             " on the native tier (" +
             codegen::variantName(P.ThePin.Variant) + ")");
  }

  if (!O.Trace) {
    Out.metric("cold_plan_ms", ColdPlan.geomeanOf(0.5), "ms");
    Out.metric("warm_plan_ms", WarmPlan.geomeanOf(0.5), "ms");
    Out.metric("mflops", Mflops.geomeanOf(0.5), "MFlop/s");
    Out.metric("p50_ms", WarmPlan.geomeanOf(0.5), "ms");
    Out.metric("p90_ms", WarmPlan.geomeanOf(0.9), "ms");
    Out.metric("rps", double(Plans) / Elapsed, "1/s");
    Out.metric("setup_s", median(SetupS), "s");
    Out.metric("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  std::map<std::string, double> Layers;
  const double Coverage =
      addPlanLayers(ColdPlan, WarmPlan, ColdReplay, WarmReplay, Layers);
  Layers["exec.batch_ns"] = BatchNs.sumOfMedians();
  Layers["exec.kernel_ns"] = KernelNs.sumOfMedians();
  Layers["exec.staging_ns"] = BatchNs.sumOfMedians() - KernelNs.sumOfMedians();
  double F = 0, By = 0;
  for (const auto &[L, V] : Flops)
    F += V;
  for (const auto &[L, V] : Bytes)
    By += V;
  Layers["kernel.flops"] = F;
  Layers["kernel.bytes"] = By;
  Layers["trace.coverage_pct"] = Coverage;
  Layers["trace.overhead_pct"] =
      100.0 * (SpannedWarm.geomeanOf(0.5) / BareWarm.geomeanOf(0.5) - 1.0);
  emitLayers(Layers, Out);

  Out.note("plan: cold " + std::to_string(ColdPlan.sumOfMedians()) +
           " ms + warm " + std::to_string(WarmPlan.sumOfMedians()) +
           " ms summed over the mix; replayed stages explain " +
           std::to_string(Coverage) + "% (target >= 90%)");
  for (const auto &[Name, Ms] : T.selfTimes())
    Out.note("plan self time " + Name + ": " + std::to_string(Ms) + " ms");
  Out.note("plan gaps: Planner::plan's own bookkeeping (spec validation, "
           "Plan assembly, context pre-warm) has no public entry point; "
           "it is plan.unexplained_*_ms");
  T.write(O.WorkDir + "/trace.json");
}

} // namespace perfbench
