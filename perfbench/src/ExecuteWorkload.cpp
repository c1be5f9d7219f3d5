//===- perfbench/src/ExecuteWorkload.cpp - Batched execution --------------===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Set-up plans a fixed mix once (cold, then warm over what the cold plans
// wrote); the timed phase loops Plan::executeBatch over the warm plans in
// one process. Staging, kernel and pool do all the timed work.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstring>

using namespace spl;

namespace perfbench {
namespace {

/// The mix: dense fft 1024 x64, strided rdft 4096 x64 (vectors interleaved
/// on input), a 2-D fft, a forced vector-codegen fft (the opcount search
/// never picks vector code itself), a rule-planned DCT, and an fft at
/// Threads=2. Specs and order are fixed (a seeded order moved peak memory
/// by ~20%); the seed draws all input data.
std::vector<BenchSpec> executeSpecs() {
  std::vector<BenchSpec> Specs(6);
  Specs[0].Label = "fft1024";
  Specs[0].Spec.Size = 1024;
  Specs[1].Label = "rdft4096_strided";
  Specs[1].Spec.Transform = "rdft";
  Specs[1].Spec.Size = 4096;
  Specs[1].Strided = true;
  Specs[1].Layout.StrideX = 64; // Interleaved: stride = HowMany, dist 1.
  Specs[1].Layout.DistX = 1;
  Specs[2].Label = "fft32x32";
  Specs[2].Spec.Shape = {32, 32};
  Specs[3].Label = "fft512_vector";
  Specs[3].Spec.Size = 512;
  Specs[3].Spec.Codegen = runtime::CodegenMode::Vector;
  Specs[4].Label = "dct2_256";
  Specs[4].Spec.Transform = "dct2";
  Specs[4].Spec.Size = 256;
  Specs[5].Label = "fft4096_t2";
  Specs[5].Spec.Size = 4096;
  Specs[5].Threads = 2;
  for (BenchSpec &B : Specs)
    B.HowMany = 64;
  return Specs;
}

struct Prepared {
  BenchSpec B;
  std::shared_ptr<runtime::Plan> Plan;
  Buffer X, Y, Verified;
};

struct SetupState {
  PlanDirs Dirs;
  std::vector<Prepared> Mix;
};

SetupState setUp(const Options &O, int Index, SampleSet &ColdPlan,
                 SampleSet &WarmPlan, std::vector<Pin> &Pins, Outcome &Out) {
  SetupState S;
  S.Dirs = PlanDirs::fresh(O.WorkDir, "setup-" + std::to_string(Index));
  std::mt19937_64 Gen(O.Seed * 104729 + 3);
  const std::vector<BenchSpec> Specs = executeSpecs();
  for (const BenchSpec &B : Specs) {
    double Ms = 0;
    std::string Why;
    if (planOnce(B.Spec, S.Dirs, Ms, Why))
      ColdPlan.add(B.Label, Ms);
    else
      Out.fail(Why);
  }
  for (std::size_t I = 0; I != Specs.size(); ++I) {
    Prepared P;
    P.B = Specs[I];
    double Ms = 0;
    std::string Why;
    P.Plan = planOnce(P.B.Spec, S.Dirs, Ms, Why);
    Out.attempt();
    if (!P.Plan) {
      Out.fail(Why);
      continue;
    }
    WarmPlan.add(P.B.Label, Ms);
    if (!Pins[I].check(*P.Plan, runtime::Backend::Native, Why)) {
      Out.fail(Why);
      continue;
    }
    if (P.B.Spec.Codegen == runtime::CodegenMode::Vector &&
        P.Plan->codegenVariant() != codegen::CodegenVariant::Vector) {
      Out.fail(P.B.Label + ": forced vector codegen demoted to scalar");
      continue;
    }
    P.X = randomVector(Gen, inputExtent(P.B));
    P.Y.assign(outputExtent(P.B), 0.0);
    executeSpec(*P.Plan, P.B, P.Y.data(), P.X.data());
    if (!OracleCheck(P.B, O.Seed).check(P.Y.data(), P.X.data(), Why)) {
      Out.fail(Why);
      continue;
    }
    if (P.B.Threads > 1) {
      BenchSpec One = P.B;
      One.Threads = 1;
      Buffer Y1(P.Y.size(), 0.0);
      executeSpec(*P.Plan, One, Y1.data(), P.X.data());
      if (std::memcmp(Y1.data(), P.Y.data(), Y1.size() * sizeof(double))) {
        Out.fail(P.B.Label + ": 1-thread and " +
                 std::to_string(P.B.Threads) +
                 "-thread outputs are not bit-identical");
        continue;
      }
    }
    P.Verified = P.Y;
    S.Mix.push_back(std::move(P));
  }
  return S;
}

} // namespace

void runExecuteWorkload(const Options &O, Outcome &Out) {
  Tracer T(O.Trace);
  SampleSet ColdPlan, WarmPlan;
  std::vector<Pin> Pins(executeSpecs().size());
  std::vector<double> SetupS;
  SetupState S;
  // More set-ups than the plan workload: set-up holds this workload's only
  // cold and warm plan samples, and cc-bound cold plans drift between runs.
  for (int I = 0; I != kSetups + 2; ++I) {
    if (I) {
      S.Mix.clear(); // Unloads the kernels before their directory goes.
      S.Dirs.remove();
    }
    const Clock::time_point T0 = Clock::now();
    S = setUp(O, I, ColdPlan, WarmPlan, Pins, Out);
    SetupS.push_back(msSince(T0) / 1000.0);
  }

  SampleSet Lat, Bare, Spanned;
  std::int64_t Calls = 0;
  const Clock::time_point Start = Clock::now();
  for (int Round = 0; msSince(Start) < O.Seconds * 1000.0; ++Round) {
    // Traced runs alternate: odd rounds with spans and telemetry, even
    // rounds with neither.
    const bool Span = T.enabled() && (Round & 1);
    T.setRecording(Span);
    for (Prepared &P : S.Mix) {
      Out.attempt();
      double Ms;
      {
        const Clock::time_point T0 = Clock::now();
        Tracer::Scope Sc(T, "execute");
        executeSpec(*P.Plan, P.B, P.Y.data(), P.X.data());
        Sc.stop();
        Ms = msSince(T0);
      }
      Lat.add(P.B.Label, Ms);
      (Span ? Spanned : Bare).add(P.B.Label, Ms);
      // Outputs are dense: compare one rotating vector bit for bit with
      // the oracle-verified output.
      const std::size_t Len = static_cast<std::size_t>(vectorLen(P.B.Spec));
      const std::size_t Off = (Calls % P.B.HowMany) * Len;
      if (std::memcmp(P.Y.data() + Off, P.Verified.data() + Off,
                      Len * sizeof(double)) != 0)
        Out.fail(P.B.Label + ": output differs from the verified output");
      ++Calls;
    }
  }
  const double Elapsed = msSince(Start) / 1000.0;
  T.setRecording(true);

  if (!O.Trace) {
    std::vector<double> Mf;
    for (const Prepared &P : S.Mix) {
      const std::vector<double> &V = Lat.all().at(P.B.Label);
      Mf.push_back(pseudoFlops(P.B.Spec) * double(P.B.HowMany) /
                   (median(V) * 1e3));
      Out.note("execute " + P.B.Label + ": " + std::to_string(V.size()) +
               " batches, p50 " + std::to_string(median(V)) + " ms, " +
               std::to_string(Mf.back()) + " MFlop/s");
    }
    Out.metric("cold_plan_ms", ColdPlan.geomeanOf(0.5), "ms");
    Out.metric("warm_plan_ms", WarmPlan.geomeanOf(0.5), "ms");
    Out.metric("mflops", geomean(Mf), "MFlop/s");
    Out.metric("p50_ms", Lat.geomeanOf(0.5), "ms");
    Out.metric("p90_ms", Lat.geomeanOf(0.9), "ms");
    Out.metric("rps", double(Calls) / Elapsed, "1/s");
    Out.metric("setup_s", median(SetupS), "s");
    Out.metric("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  std::map<std::string, double> Layers;
  std::vector<std::pair<std::string, std::shared_ptr<runtime::Plan>>> Plans;
  double Batch = 0, Kernel = 0, Flops = 0, Bytes = 0;
  for (Prepared &P : S.Mix) {
    Plans.push_back({P.B.Label, P.Plan});
    // Batch and kernel are both timed back to back on warm caches (the
    // round-robin latencies above run each spec after the others), and
    // the single-threaded kernel is compared with the Threads=1 batch.
    BenchSpec One = P.B;
    One.Threads = 1;
    std::vector<double> T1, TN;
    for (int Rep = 0; Rep != 21; ++Rep) {
      Clock::time_point T0 = Clock::now();
      executeSpec(*P.Plan, One, P.Y.data(), P.X.data());
      T1.push_back(msSince(T0));
      if (P.B.Threads > 1) {
        T0 = Clock::now();
        executeSpec(*P.Plan, P.B, P.Y.data(), P.X.data());
        TN.push_back(msSince(T0));
      }
    }
    if (P.B.Threads > 1)
      Layers["exec.thread_speedup"] = median(T1) / median(TN);
    const double BatchNs = median(T1) * 1e6 / double(P.B.HowMany);
    const double KernelNs = kernelOnlyNs(*P.Plan, P.B, 21);
    Batch += BatchNs;
    Kernel += KernelNs;
    Flops += kernelFlops(*P.Plan);
    Bytes += kernelBytes(*P.Plan);
    Out.note("execute " + P.B.Label + ": " + std::to_string(BatchNs) +
             " ns/vector batch (1 thread), " + std::to_string(KernelNs) +
             " ns/vector kernel, staging " +
             std::to_string(BatchNs - KernelNs) + " ns/vector");
  }
  Layers["exec.batch_ns"] = Batch;
  Layers["exec.kernel_ns"] = Kernel;
  Layers["exec.staging_ns"] = Batch - Kernel;
  Layers["kernel.flops"] = Flops;
  Layers["kernel.bytes"] = Bytes;
  ReplaySet ColdReplay, WarmReplay;
  replayAll(Plans, S.Dirs, O.WorkDir, 2, T, ColdReplay, WarmReplay);
  addPlanLayers(ColdPlan, WarmPlan, ColdReplay, WarmReplay, Layers);
  Layers["trace.coverage_pct"] = Batch > 0 ? 100.0 * Kernel / Batch : 0;
  Layers["trace.overhead_pct"] =
      100.0 * (Spanned.geomeanOf(0.5) / Bare.geomeanOf(0.5) - 1.0);
  emitLayers(Layers, Out);

  Out.note("execute: the kernel alone explains " +
           std::to_string(Layers["trace.coverage_pct"]) +
           "% of summed batch time (target >= 90%)");
  for (const auto &[Name, Ms] : T.selfTimes())
    Out.note("execute self time " + Name + ": " + std::to_string(Ms) + " ms");
  Out.note("execute gaps: staging (gather, halfcomplex fold, lane packing) "
           "and pool dispatch run inside executeBatch and are measured only "
           "as batch minus kernel");
  T.write(O.WorkDir + "/trace.json");
}

} // namespace perfbench
