//===- tests/RuntimeTest.cpp - Plan/execute runtime layer tests ---------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the FFTW-style runtime layer: planning against the dense-matrix
/// oracle, plan sharing through the registry, VM-vs-native agreement,
/// thread-count determinism of batched execution, and the typed-error
/// fallback from the native backend to the VM.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/VectorISA.h"
#include "ir/Transforms.h"
#include "perf/NativeCompile.h"
#include "runtime/AlignedBuffer.h"
#include "runtime/PlanRegistry.h"
#include "search/DPSearch.h"
#include "support/Diagnostics.h"
#include "support/ThreadPool.h"
#include "telemetry/Metrics.h"
#include "transforms/Registry.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

using namespace spl;
using namespace spl::test;

namespace {

/// Options every test shares: deterministic cost model, no wisdom file I/O.
runtime::PlannerOptions testOptions() {
  runtime::PlannerOptions Opts;
  Opts.Evaluator = "opcount";
  Opts.UseWisdom = false;
  return Opts;
}

/// Arms SPL_FAULT with one spec for the object's lifetime, then restores
/// whatever was armed before (FaultInjectionTest's fixture does the same).
class ScopedFault {
public:
  explicit ScopedFault(const char *Spec) {
    if (const char *Old = std::getenv("SPL_FAULT"))
      Saved = Old;
    ::setenv("SPL_FAULT", Spec, 1);
    fault::reset();
  }
  ~ScopedFault() {
    if (Saved)
      ::setenv("SPL_FAULT", Saved->c_str(), 1);
    else
      ::unsetenv("SPL_FAULT");
    fault::reset();
  }
  ScopedFault(const ScopedFault &) = delete;
  ScopedFault &operator=(const ScopedFault &) = delete;

private:
  std::optional<std::string> Saved;
};

/// Interleaves a complex vector into (re,im) pairs as the lowered plans
/// expect.
std::vector<double> interleave(const std::vector<Cplx> &V) {
  std::vector<double> Out(V.size() * 2);
  for (size_t I = 0; I != V.size(); ++I) {
    Out[2 * I] = V[I].real();
    Out[2 * I + 1] = V[I].imag();
  }
  return Out;
}

std::vector<Cplx> deinterleave(const std::vector<double> &V) {
  std::vector<Cplx> Out(V.size() / 2);
  for (size_t I = 0; I != Out.size(); ++I)
    Out[I] = Cplx(V[2 * I], V[2 * I + 1]);
  return Out;
}

TEST(Plan, FftMatchesDenseOracle) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  for (std::int64_t N : {4, 16, 64}) {
    runtime::PlanSpec Spec;
    Spec.Size = N;
    Spec.Want = runtime::Backend::VM; // Deterministically available.
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Diags.dump();
    EXPECT_EQ(P->vectorLen(), 2 * N); // Complex data, interleaved.

    auto X = randomVector(N);
    std::vector<double> XR = interleave(X), YR(2 * N);
    P->execute(YR.data(), XR.data());
    EXPECT_LT(maxAbsDiff(deinterleave(YR), dftMatrix(N).apply(X)), 1e-10)
        << "N=" << N;
  }
}

TEST(Plan, WhtMatchesDenseOracle) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Transform = "wht";
  Spec.Size = 32;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();
  EXPECT_EQ(P->vectorLen(), 32); // Real data.

  auto XD = randomRealVector(32);
  std::vector<Cplx> X(32);
  for (size_t I = 0; I != 32; ++I)
    X[I] = Cplx(XD[I], 0);
  std::vector<double> Y(32);
  P->execute(Y.data(), XD.data());
  auto Want = whtMatrix(32).apply(X);
  double Max = 0;
  for (size_t I = 0; I != 32; ++I)
    Max = std::max(Max, std::abs(Y[I] - Want[I].real()));
  EXPECT_LT(Max, 1e-10);
}

TEST(Plan, InPlaceExecuteMatchesOutOfPlace) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();

  std::vector<double> X = interleave(randomVector(16));
  std::vector<double> Y(32), InPlace = X;
  P->execute(Y.data(), X.data());
  P->execute(InPlace.data(), InPlace.data()); // Y == X aliasing.
  EXPECT_EQ(std::memcmp(Y.data(), InPlace.data(), 32 * sizeof(double)), 0);
}

TEST(Plan, ExecutesFeedTheCatalogueOnlyWhenArmed) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 8;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();

  std::vector<double> X(static_cast<size_t>(P->vectorLen() * 4), 0.5);
  std::vector<double> Y(X.size());

  // Disarmed executions record nothing.
  telemetry::setMetricsEnabled(false);
  telemetry::resetAllMetrics();
  P->execute(Y.data(), X.data());
  P->executeBatch(Y.data(), X.data(), 4);
  EXPECT_EQ(telemetry::RuntimeExecutes.value(), 0u);
  EXPECT_EQ(telemetry::RuntimeBatches.value(), 0u);
  EXPECT_EQ(telemetry::RuntimeExecuteNs.snapshot().Count, 0u);

  telemetry::setMetricsEnabled(true);
  P->execute(Y.data(), X.data());
  P->execute(Y.data(), X.data());
  P->executeBatch(Y.data(), X.data(), 4);
  telemetry::setMetricsEnabled(false);

  EXPECT_EQ(telemetry::RuntimeExecutes.value(), 2u);
  EXPECT_EQ(telemetry::RuntimeBatches.value(), 1u);
  EXPECT_EQ(telemetry::RuntimeBatchVectors.value(), 4u);
  const telemetry::HistogramSnapshot ExecNs =
      telemetry::RuntimeExecuteNs.snapshot();
  EXPECT_EQ(ExecNs.Count, 2u);
  EXPECT_EQ(telemetry::RuntimeBatchNs.snapshot().Count, 1u);
  EXPECT_GE(ExecNs.Max, ExecNs.Min);
  EXPECT_GT(ExecNs.p50(), 0u);
  telemetry::resetAllMetrics(); // Keep the process-global registry clean.
}

TEST(Plan, InvalidSpecsFailWithDiagnostics) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());

  runtime::PlanSpec NonPow2;
  NonPow2.Size = 20; // Not a power of two above MaxLeaf.
  EXPECT_FALSE(Planner.plan(NonPow2));

  runtime::PlanSpec BadTransform;
  BadTransform.Transform = "dct";
  BadTransform.Size = 8;
  EXPECT_FALSE(Planner.plan(BadTransform));

  runtime::PlanSpec RealFft;
  RealFft.Size = 8;
  RealFft.Datatype = "real"; // The FFT needs complex data.
  EXPECT_FALSE(Planner.plan(RealFft));

  EXPECT_GT(Diags.errorCount(), 0u);
}

TEST(PlanRegistry, SharesOnePlanPerSpec) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanRegistry Registry(Planner);

  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::VM;
  auto A = Registry.acquire(Spec);
  auto B = Registry.acquire(Spec);
  ASSERT_TRUE(A);
  EXPECT_EQ(A.get(), B.get()); // The very same plan object.

  runtime::PlanSpec Other = Spec;
  Other.Size = 32;
  auto C = Registry.acquire(Other);
  ASSERT_TRUE(C);
  EXPECT_NE(A.get(), C.get());

  auto S = Registry.stats();
  EXPECT_EQ(S.Hits, 1u);
  EXPECT_EQ(S.Misses, 2u);
  EXPECT_EQ(Registry.size(), 2u);

  // Old plans survive a clear; the next acquire re-plans.
  Registry.clear();
  EXPECT_EQ(Registry.size(), 0u);
  auto D = Registry.acquire(Spec);
  ASSERT_TRUE(D);
  EXPECT_NE(A.get(), D.get());
  std::vector<double> X = interleave(randomVector(16)), Y(32);
  A->execute(Y.data(), X.data()); // Still executable after clear().
}

TEST(PlanRegistry, ConcurrentAcquiresSingleFlight) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanRegistry Registry(Planner);

  runtime::PlanSpec Spec;
  Spec.Size = 64;
  Spec.Want = runtime::Backend::VM;

  constexpr int NThreads = 8;
  std::vector<std::shared_ptr<runtime::Plan>> Got(NThreads);
  std::vector<std::thread> Threads;
  for (int I = 0; I != NThreads; ++I)
    Threads.emplace_back([&, I] { Got[I] = Registry.acquire(Spec); });
  for (auto &T : Threads)
    T.join();

  ASSERT_TRUE(Got[0]);
  for (int I = 1; I != NThreads; ++I)
    EXPECT_EQ(Got[I].get(), Got[0].get());
  // Exactly one planning pass ran, however the threads interleaved.
  EXPECT_EQ(Registry.stats().Misses, 1u);
}

TEST(PlanRegistry, ContentionStressMixedKeys) {
  // The spld case: many tenants hammering a mix of hot (identical) and
  // cold (distinct) specs at once. Whatever the interleaving, each
  // distinct key must be searched exactly once (single-flight), every
  // thread must get the same shared plan for its key, and the counters
  // must account for every acquire as a miss, a hit, or a wait.
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanRegistry Registry(Planner);

  constexpr int NThreads = 16;
  constexpr int Rounds = 8;
  const std::int64_t Sizes[] = {8, 16, 32, 64};
  constexpr int NKeys = 4;

  std::atomic<int> Ready{0};
  std::atomic<bool> Go{false};
  std::atomic<int> Failures{0};
  // [key] -> the plan each thread observed last; all must agree per key.
  std::array<std::array<const runtime::Plan *, NKeys>, NThreads> Seen{};

  std::vector<std::thread> Threads;
  for (int T = 0; T != NThreads; ++T)
    Threads.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (!Go.load())
        std::this_thread::yield();
      for (int R = 0; R != Rounds; ++R)
        for (int K = 0; K != NKeys; ++K) {
          runtime::PlanSpec Spec;
          // Stagger the visiting order per thread so every key sees
          // first-acquire races from different threads.
          const int Key = (K + T + R) % NKeys;
          Spec.Size = Sizes[Key];
          Spec.Want = runtime::Backend::VM;
          auto P = Registry.acquire(Spec);
          if (!P) {
            Failures.fetch_add(1);
            return;
          }
          Seen[T][Key] = P.get();
        }
    });
  while (Ready.load() != NThreads)
    std::this_thread::yield();
  Go.store(true);
  for (auto &T : Threads)
    T.join();
  ASSERT_EQ(Failures.load(), 0);

  for (int K = 0; K != NKeys; ++K)
    for (int T = 1; T != NThreads; ++T)
      EXPECT_EQ(Seen[T][K], Seen[0][K]) << "key " << K << " not shared";

  const auto S = Registry.stats();
  EXPECT_EQ(Registry.size(), static_cast<size_t>(NKeys));
  EXPECT_EQ(S.Misses, static_cast<size_t>(NKeys))
      << "a key was planned more than once under contention";
  // Every other acquire either hit the memo or waited on the in-flight
  // search — nothing is lost and nothing is double-counted.
  EXPECT_EQ(S.Hits + S.Waits,
            static_cast<size_t>(NThreads) * Rounds * NKeys - NKeys);
}

TEST(Plan, NativeAgreesWithVmTo1e10) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no working C compiler on this host";
  SPL_SKIP_IF_FAULTS_ARMED();

  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 64;
  Spec.Want = runtime::Backend::Native;
  auto NP = Planner.plan(Spec);
  ASSERT_TRUE(NP) << Diags.dump();
  ASSERT_EQ(NP->backend(), runtime::Backend::Native)
      << NP->fallbackReason();

  Spec.Want = runtime::Backend::VM;
  auto VP = Planner.plan(Spec);
  ASSERT_TRUE(VP) << Diags.dump();

  constexpr std::int64_t Batch = 16;
  const std::int64_t Len = NP->vectorLen();
  std::vector<double> X, YN(Batch * Len), YV(Batch * Len);
  for (std::int64_t I = 0; I != Batch; ++I) {
    auto V = interleave(randomVector(64, 100 + static_cast<unsigned>(I)));
    X.insert(X.end(), V.begin(), V.end());
  }
  NP->executeBatch(YN.data(), X.data(), Batch, 2);
  VP->executeBatch(YV.data(), X.data(), Batch, 2);
  double Max = 0;
  for (size_t I = 0; I != YN.size(); ++I)
    Max = std::max(Max, std::abs(YN[I] - YV[I]));
  EXPECT_LT(Max, 1e-10);
}

TEST(Plan, BatchIsBitIdenticalAcrossThreadCounts) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::VM; // Works on compiler-less hosts too.
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();

  constexpr std::int64_t Batch = 37; // Not a multiple of any thread count.
  const std::int64_t Len = P->vectorLen();
  std::vector<double> X;
  for (std::int64_t I = 0; I != Batch; ++I) {
    auto V = interleave(randomVector(16, 7 + static_cast<unsigned>(I)));
    X.insert(X.end(), V.begin(), V.end());
  }

  std::vector<double> Y1(Batch * Len);
  P->executeBatch(Y1.data(), X.data(), Batch, 1);
  for (int T : {2, 3, 4, 8}) {
    std::vector<double> YT(Batch * Len, -1.0);
    P->executeBatch(YT.data(), X.data(), Batch, T);
    EXPECT_EQ(std::memcmp(Y1.data(), YT.data(),
                          static_cast<size_t>(Batch * Len) * sizeof(double)),
              0)
        << "threads=" << T;
  }
}

TEST(Plan, StridedBatchTouchesOnlyItsLanes) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 4;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();

  const std::int64_t Len = P->vectorLen(), Stride = Len + 3, Batch = 5;
  std::vector<double> X(Batch * Stride, 0.5), Y(Batch * Stride, -7.0);
  runtime::BatchLayout BL;
  BL.HowMany = Batch;
  BL.DistX = BL.DistY = Stride;
  ASSERT_EQ(P->executeBatch(Y.data(), X.data(), BL, support::Deadline(), 2),
            runtime::ExecStatus::Ok);
  for (std::int64_t I = 0; I != Batch; ++I)
    for (std::int64_t J = Len; J != Stride; ++J)
      EXPECT_EQ(Y[I * Stride + J], -7.0) << "pad lane written";
}

TEST(Plan, ForcedNativeFailureFallsBackToVm) {
  ScopedFault Fault("native-compile");
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());

  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::Native;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump(); // Fallback, not failure.
  EXPECT_EQ(P->backend(), runtime::Backend::VM);
  EXPECT_TRUE(P->usedFallback());
  EXPECT_NE(P->fallbackReason().find("compile-failed"), std::string::npos)
      << P->fallbackReason();
  EXPECT_EQ(Diags.errorCount(), 0u); // A note, never an error.

  // The fallback plan still computes the right answer.
  auto X = randomVector(16);
  std::vector<double> XR = interleave(X), YR(32);
  P->execute(YR.data(), XR.data());
  EXPECT_LT(maxAbsDiff(deinterleave(YR), dftMatrix(16).apply(X)), 1e-10);
}

TEST(Plan, DescribeMentionsBackendAndFormula) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 8;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();
  auto D = P->describe();
  EXPECT_NE(D.find("fft 8"), std::string::npos) << D;
  EXPECT_NE(D.find("vm"), std::string::npos) << D;
  EXPECT_FALSE(P->formulaText().empty());
  EXPECT_NE(D.find(P->formulaText()), std::string::npos) << D;
}

TEST(Planner, WisdomRoundTripSkipsResearch) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = "/tmp/spl-runtime-wisdom-" + std::to_string(getpid());
  {
    Diagnostics Diags;
    auto Opts = testOptions();
    Opts.UseWisdom = true;
    Opts.WisdomPath = Path;
    runtime::Planner Planner(Diags, Opts);
    runtime::PlanSpec Spec;
    Spec.Size = 32;
    Spec.Want = runtime::Backend::VM;
    ASSERT_TRUE(Planner.plan(Spec)) << Diags.dump();
    EXPECT_TRUE(Planner.saveWisdom());
  }
  {
    Diagnostics Diags;
    auto Opts = testOptions();
    Opts.UseWisdom = true;
    Opts.WisdomPath = Path;
    runtime::Planner Planner(Diags, Opts);
    runtime::PlanSpec Spec;
    Spec.Size = 32;
    Spec.Want = runtime::Backend::VM;
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Diags.dump();
    EXPECT_GT(Planner.wisdom().stats().Hits, 0u) << "wisdom not consulted";

    // And the remembered formula still checks out against the oracle.
    auto X = randomVector(32);
    std::vector<double> XR = interleave(X), YR(64);
    P->execute(YR.data(), XR.data());
    EXPECT_LT(maxAbsDiff(deinterleave(YR), dftMatrix(32).apply(X)), 1e-10);
  }
  removeRecordFile(Path);
}

TEST(Plan, VectorPlanMatchesDenseOracle) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no working C compiler on this host";
  if (!codegen::vectorBackendAvailable())
    GTEST_SKIP() << "no SIMD ISA on this host";
  SPL_SKIP_IF_FAULTS_ARMED();

  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 32;
  Spec.Want = runtime::Backend::Native;
  Spec.Codegen = runtime::CodegenMode::Vector;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();
  ASSERT_EQ(P->backend(), runtime::Backend::Native) << P->fallbackReason();
  ASSERT_EQ(P->codegenVariant(), codegen::CodegenVariant::Vector)
      << P->fallbackReason();
  EXPECT_GT(P->lanes(), 1);

  Matrix Dense = dftMatrix(32);

  // Single execute goes through the one-column lane group (padded lanes).
  auto X0 = randomVector(32);
  std::vector<double> XR = interleave(X0), YR(64);
  P->execute(YR.data(), XR.data());
  EXPECT_LT(maxAbsDiff(deinterleave(YR), Dense.apply(X0)), 1e-10);

  // Batched execute with a count that is neither a lane-group nor a
  // thread-chunk multiple: tail groups are zero-padded, never garbage.
  constexpr std::int64_t Batch = 11;
  const std::int64_t Len = P->vectorLen();
  std::vector<std::vector<Cplx>> Cols;
  std::vector<double> BX, BY(Batch * Len);
  for (std::int64_t I = 0; I != Batch; ++I) {
    Cols.push_back(randomVector(32, 500 + static_cast<unsigned>(I)));
    auto V = interleave(Cols.back());
    BX.insert(BX.end(), V.begin(), V.end());
  }
  P->executeBatch(BY.data(), BX.data(), Batch, 3);
  for (std::int64_t I = 0; I != Batch; ++I) {
    std::vector<double> One(BY.begin() + I * Len,
                            BY.begin() + (I + 1) * Len);
    EXPECT_LT(maxAbsDiff(deinterleave(One), Dense.apply(Cols[I])), 1e-10)
        << "batch column " << I;
  }
}

TEST(Plan, VectorBatchBitIdenticalAcrossThreadCounts) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no working C compiler on this host";
  if (!codegen::vectorBackendAvailable())
    GTEST_SKIP() << "no SIMD ISA on this host";
  SPL_SKIP_IF_FAULTS_ARMED();

  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::Native;
  Spec.Codegen = runtime::CodegenMode::Vector;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();
  ASSERT_EQ(P->codegenVariant(), codegen::CodegenVariant::Vector)
      << P->fallbackReason();

  // Lane-wise kernels make the group cut invisible: however the batch is
  // chunked across threads, every column's bits are identical.
  constexpr std::int64_t Batch = 37;
  const std::int64_t Len = P->vectorLen();
  std::vector<double> X;
  for (std::int64_t I = 0; I != Batch; ++I) {
    auto V = interleave(randomVector(16, 7 + static_cast<unsigned>(I)));
    X.insert(X.end(), V.begin(), V.end());
  }
  std::vector<double> Y1(Batch * Len);
  P->executeBatch(Y1.data(), X.data(), Batch, 1);
  for (int T : {2, 3, 4, 8}) {
    std::vector<double> YT(Batch * Len, -1.0);
    P->executeBatch(YT.data(), X.data(), Batch, T);
    EXPECT_EQ(std::memcmp(Y1.data(), YT.data(),
                          static_cast<size_t>(Batch * Len) * sizeof(double)),
              0)
        << "threads=" << T;
  }
}

TEST(Plan, VectorCompileFaultDemotesToScalarNative) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no working C compiler on this host";
  if (!codegen::vectorBackendAvailable())
    GTEST_SKIP() << "no SIMD ISA on this host";
  SPL_SKIP_IF_FAULTS_ARMED();

  telemetry::setMetricsEnabled(true);
  std::uint64_t Before = telemetry::counter("runtime.demote.vector").value();

  ::setenv("SPL_FAULT", "vector-compile", 1);
  fault::reset();
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::Native;
  Spec.Codegen = runtime::CodegenMode::Vector;
  auto P = Planner.plan(Spec);
  ::unsetenv("SPL_FAULT");
  fault::reset();

  // The vector tier dies, the plan does not: scalar native takes over.
  ASSERT_TRUE(P) << Diags.dump();
  EXPECT_EQ(P->backend(), runtime::Backend::Native) << P->fallbackReason();
  EXPECT_EQ(P->codegenVariant(), codegen::CodegenVariant::Scalar);
  EXPECT_TRUE(P->usedFallback());
  EXPECT_NE(P->fallbackReason().find("vector"), std::string::npos)
      << P->fallbackReason();
  EXPECT_EQ(Diags.errorCount(), 0u);
  EXPECT_GT(telemetry::counter("runtime.demote.vector").value(), Before);

  auto X = randomVector(16);
  std::vector<double> XR = interleave(X), YR(32);
  P->execute(YR.data(), XR.data());
  EXPECT_LT(maxAbsDiff(deinterleave(YR), dftMatrix(16).apply(X)), 1e-10);
}

/// Number of codegen races the planner has decided so far.
std::uint64_t racesDecided() {
  return telemetry::counter("plan.scalar_wins").value() +
         telemetry::counter("plan.vector_wins").value();
}

TEST(Planner, NativeEvaluatorRacesOnlyTheWinnersKernels) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no working C compiler on this host";
  SPL_SKIP_IF_FAULTS_ARMED();

  telemetry::setMetricsEnabled(true);
  auto Opts = testOptions();
  Opts.Evaluator = "native";
  const Matrix Dense = dftMatrix(8);
  for (auto Mode : {runtime::CodegenMode::Auto, runtime::CodegenMode::Scalar,
                    runtime::CodegenMode::Vector}) {
    SCOPED_TRACE(runtime::codegenModeName(Mode));
    Diagnostics Diags;
    runtime::Planner Planner(Diags, Opts);
    runtime::PlanSpec Spec;
    Spec.Size = 8;
    Spec.Want = runtime::Backend::Native;
    Spec.Codegen = Mode;
    const std::uint64_t Before = racesDecided();
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Diags.dump();
    EXPECT_EQ(P->backend(), runtime::Backend::Native) << P->fallbackReason();

    // Only auto codegen races, once per plan, and only where a SIMD ISA
    // can run; a forced mode takes its own kernel without timing it.
    const bool Raced = Mode == runtime::CodegenMode::Auto &&
                       codegen::vectorBackendAvailable();
    EXPECT_EQ(racesDecided() - Before, Raced ? 1u : 0u);
    if (Mode == runtime::CodegenMode::Scalar) {
      EXPECT_EQ(P->codegenVariant(), codegen::CodegenVariant::Scalar);
    }

    auto X = randomVector(8);
    std::vector<double> XR = interleave(X), YR(16);
    P->execute(YR.data(), XR.data());
    EXPECT_LT(maxAbsDiff(deinterleave(YR), Dense.apply(X)), 1e-10);
  }

  // The opcount cost model never races, whatever the codegen mode.
  {
    Diagnostics Diags;
    runtime::Planner Planner(Diags, testOptions());
    runtime::PlanSpec Spec;
    Spec.Size = 8;
    Spec.Want = runtime::Backend::Native;
    const std::uint64_t Before = racesDecided();
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Diags.dump();
    EXPECT_EQ(racesDecided(), Before);
    EXPECT_EQ(P->codegenVariant(), codegen::CodegenVariant::Scalar);
  }
  telemetry::setMetricsEnabled(false);
  telemetry::resetAllMetrics();
}

TEST(Planner, NativeTimeSearchWinnerRoundTripsThroughWisdom) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no working C compiler on this host";
  SPL_SKIP_IF_FAULTS_ARMED();

  std::string Path =
      "/tmp/spl-runtime-native-wisdom-" + std::to_string(getpid());
  removeRecordFile(Path);
  driver::CompilerOptions CO;
  CO.UnrollThreshold = 16;
  search::SearchOptions SO;
  SO.MaxLeaf = 8;
  std::string Cold;
  {
    Diagnostics Diags;
    search::NativeTimeEvaluator Eval(Diags, CO, /*Repeats=*/1);
    search::PlanCache Wisdom(Diags);
    search::DPSearch Search(Eval, Diags, SO, &Wisdom);
    auto Best = Search.best(8);
    ASSERT_TRUE(Best) << Diags.dump();
    EXPECT_GT(Best->Cost, 0);
    EXPECT_GT(Eval.evaluations(), 0u);
    Cold = Best->Formula->print();
    auto X = randomVector(8);
    EXPECT_LT(maxAbsDiff(Best->Formula->toMatrix().apply(X),
                         dftMatrix(8).apply(X)),
              1e-10);
    ASSERT_TRUE(Wisdom.save(Path));
  }
  {
    Diagnostics Diags;
    search::NativeTimeEvaluator Eval(Diags, CO, /*Repeats=*/1);
    search::PlanCache Wisdom(Diags);
    ASSERT_TRUE(Wisdom.load(Path));
    search::DPSearch Search(Eval, Diags, SO, &Wisdom);
    auto Best = Search.best(8);
    ASSERT_TRUE(Best) << Diags.dump();
    EXPECT_EQ(Best->Formula->print(), Cold);
    EXPECT_EQ(Eval.evaluations(), 0u) << "warm search re-timed candidates";
  }
  removeRecordFile(Path);
}

TEST(Plan, ExecuteBatchHonorsDeadlineWithoutTouchingOutput) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();

  const std::int64_t Len = P->vectorLen();
  std::vector<double> X(static_cast<size_t>(8 * Len), 0.25);
  std::vector<double> Y(X.size(), -7.0);

  telemetry::setMetricsEnabled(true);
  const std::uint64_t Rejected0 =
      telemetry::counter("runtime.deadline_exceeded").value();

  runtime::BatchLayout BL;
  BL.HowMany = 8;
  support::Deadline Dead = support::Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(P->executeBatch(Y.data(), X.data(), BL, Dead, 1),
            runtime::ExecStatus::DeadlineExceeded);
  for (double V : Y)
    EXPECT_EQ(V, -7.0) << "a rejected batch must not touch the output";

  // Cancellation rides the same token as clock expiry.
  support::Deadline Cancelled = support::Deadline::afterMs(60000);
  Cancelled.cancel();
  EXPECT_EQ(P->executeBatch(Y.data(), X.data(), runtime::BatchLayout(),
                            Cancelled),
            runtime::ExecStatus::DeadlineExceeded);
  EXPECT_GT(telemetry::counter("runtime.deadline_exceeded").value(),
            Rejected0);
  telemetry::setMetricsEnabled(false);
  telemetry::resetAllMetrics();

  // An unbounded deadline behaves exactly like the deadline-free overload.
  EXPECT_EQ(P->executeBatch(Y.data(), X.data(), BL), runtime::ExecStatus::Ok);
  EXPECT_NE(Y[0], -7.0);
}

TEST(Plan, EveryExecuteBatchFormRecordsBatchMetrics) {
  // Regression: the deadline-bearing and strided forms (spld's and
  // splrun's batches) once skipped the global runtime.batch* metrics.
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();

  runtime::BatchLayout Dense, Strided;
  Dense.HowMany = Strided.HowMany = 3;
  Strided.StrideX = Strided.StrideY = 2;
  const std::int64_t Span = (P->vectorLen() - 1) * 2 + 1;
  std::vector<double> X(static_cast<size_t>(3 * Span), 0.25);
  std::vector<double> Y(X.size());

  telemetry::setMetricsEnabled(true);
  telemetry::Counter &Batches = telemetry::counter("runtime.batches");
  telemetry::Counter &Vectors = telemetry::counter("runtime.batch_vectors");
  telemetry::Histogram &Ns = telemetry::histogram("runtime.batch_ns");
  const std::uint64_t B0 = Batches.value(), V0 = Vectors.value(),
                      N0 = Ns.snapshot().Count;
  EXPECT_EQ(P->executeBatch(Y.data(), X.data(), Dense,
                            support::Deadline::afterMs(60000)),
            runtime::ExecStatus::Ok);
  EXPECT_EQ(P->executeBatch(Y.data(), X.data(), Strided),
            runtime::ExecStatus::Ok);
  EXPECT_EQ(Batches.value() - B0, 2u);
  EXPECT_EQ(Vectors.value() - V0, 6u);
  EXPECT_EQ(Ns.snapshot().Count - N0, 2u);
  telemetry::setMetricsEnabled(false);
  telemetry::resetAllMetrics();
}

TEST(Planner, ExpiredDeadlineStillYieldsAWorkingPressuredPlan) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 32;

  support::Deadline Dead = support::Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  runtime::PlanError Err = runtime::PlanError::None;
  auto P = Planner.plan(Spec, Dead, &Err);
  ASSERT_TRUE(P) << Diags.dump();
  EXPECT_TRUE(P->deadlinePressured());
  // The compile slice was spent, so the plan degraded below the native
  // tier rather than forking a compiler it had no budget for.
  EXPECT_NE(P->backend(), runtime::Backend::Native);

  // Pressured does not mean wrong: the answer still matches an unpressured
  // plan of the same spec.
  auto Ref = Planner.plan(Spec);
  ASSERT_TRUE(Ref) << Diags.dump();
  EXPECT_FALSE(Ref->deadlinePressured());
  const std::int64_t Len = P->vectorLen();
  std::vector<double> X(static_cast<size_t>(Len));
  for (std::int64_t I = 0; I != Len; ++I)
    X[static_cast<size_t>(I)] = 0.1 * static_cast<double>(I % 13) - 0.5;
  std::vector<double> Y1(X.size()), Y2(X.size());
  P->execute(Y1.data(), X.data());
  Ref->execute(Y2.data(), X.data());
  for (size_t I = 0; I != X.size(); ++I)
    EXPECT_NEAR(Y1[I], Y2[I], 1e-10);
}

/// Dense-oracle parity for one plan over \p Vectors random vectors.
void expectOracleParity(runtime::Plan &P, std::int64_t Vectors = 4) {
  const transforms::TransformInfo *TI =
      transforms::lookup(P.spec().Transform);
  ASSERT_NE(TI, nullptr) << P.spec().Transform;
  std::vector<std::int64_t> Dims = P.spec().Shape;
  if (Dims.empty())
    Dims.push_back(P.size());
  Matrix M = transforms::oracleMatrix(*TI, Dims);
  const bool Complex = P.layout() == runtime::Plan::Layout::Interleaved;
  const std::int64_t Len = P.vectorLen();
  for (std::int64_t V = 0; V != Vectors; ++V) {
    std::vector<double> X =
        randomRealVector(static_cast<size_t>(Len),
                         1000 + static_cast<unsigned>(V));
    std::vector<double> Y(static_cast<size_t>(Len));
    P.execute(Y.data(), X.data());
    std::vector<Cplx> In(M.cols());
    for (size_t I = 0; I != In.size(); ++I)
      In[I] = Complex ? Cplx(X[2 * I], X[2 * I + 1]) : Cplx(X[I], 0.0);
    std::vector<Cplx> Ref = M.apply(In);
    double Max = 0;
    for (size_t I = 0; I != Ref.size(); ++I) {
      if (Complex) {
        Max = std::max(Max, std::abs(Y[2 * I] - Ref[I].real()));
        Max = std::max(Max, std::abs(Y[2 * I + 1] - Ref[I].imag()));
      } else {
        Max = std::max(Max, std::abs(Y[I] - Ref[I].real()));
      }
    }
    EXPECT_LT(Max, 1e-10) << P.spec().key() << " vector " << V;
  }
}

TEST(Plan, RegistryTransformsMatchDenseOracles) {
  // Every new transform kind, two sizes, VM tier (compiler-less hosts
  // included): 1e-10 parity against the registry oracle.
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  for (const char *Name : {"rdft", "dct2", "dct3", "dct4"}) {
    for (std::int64_t N : {8, 32}) {
      runtime::PlanSpec Spec;
      Spec.Transform = Name;
      Spec.Size = N;
      Spec.Want = runtime::Backend::VM;
      auto P = Planner.plan(Spec);
      ASSERT_TRUE(P) << Name << " " << N << ": " << Diags.dump();
      EXPECT_EQ(P->vectorLen(), N) << Name; // Real/halfcomplex: N doubles.
      EXPECT_EQ(P->layout(), Name == std::string("rdft")
                                 ? runtime::Plan::Layout::HalfComplex
                                 : runtime::Plan::Layout::Real);
      expectOracleParity(*P);
    }
  }
}

TEST(Plan, NDRowColumnMatchesKronOracle) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());

  runtime::PlanSpec Fft;
  Fft.Shape = {4, 8};
  Fft.Want = runtime::Backend::VM;
  auto PF = Planner.plan(Fft);
  ASSERT_TRUE(PF) << Diags.dump();
  EXPECT_EQ(PF->size(), 32);
  EXPECT_EQ(PF->vectorLen(), 64); // 32 complex points interleaved.
  expectOracleParity(*PF);

  runtime::PlanSpec Dct;
  Dct.Transform = "dct2";
  Dct.Shape = {4, 4};
  Dct.Want = runtime::Backend::VM;
  auto PD = Planner.plan(Dct);
  ASSERT_TRUE(PD) << Diags.dump();
  EXPECT_EQ(PD->vectorLen(), 16);
  expectOracleParity(*PD);
}

TEST(Plan, RegistryTransformBatchesAreBitIdenticalAcrossThreads) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  for (const char *Name : {"rdft", "dct3"}) {
    runtime::PlanSpec Spec;
    Spec.Transform = Name;
    Spec.Size = 16;
    Spec.Want = runtime::Backend::VM;
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Name << ": " << Diags.dump();

    constexpr std::int64_t Batch = 37; // Not a multiple of a thread count.
    const std::int64_t Len = P->vectorLen();
    std::vector<double> X;
    for (std::int64_t I = 0; I != Batch; ++I) {
      auto V = randomRealVector(static_cast<size_t>(Len),
                                40 + static_cast<unsigned>(I));
      X.insert(X.end(), V.begin(), V.end());
    }
    std::vector<double> Y1(static_cast<size_t>(Batch * Len));
    P->executeBatch(Y1.data(), X.data(), Batch, 1);
    for (int T : {2, 3, 8}) {
      std::vector<double> YT(Y1.size(), -1.0);
      P->executeBatch(YT.data(), X.data(), Batch, T);
      EXPECT_EQ(std::memcmp(Y1.data(), YT.data(),
                            Y1.size() * sizeof(double)),
                0)
          << Name << " threads=" << T;
    }
  }
}

TEST(Plan, RegistryTransformsDegradeUnderForcedNativeFailure) {
  // The degradation chain must carry every new transform kind down to a
  // working tier — including the halfcomplex layout adapter — and the
  // demoted plan still matches the oracle.
  ScopedFault Fault("native-compile");
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  for (const char *Name : {"rdft", "dct2", "dct3", "dct4"}) {
    runtime::PlanSpec Spec;
    Spec.Transform = Name;
    Spec.Size = 16;
    Spec.Want = runtime::Backend::Native;
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Name << ": " << Diags.dump();
    EXPECT_EQ(P->backend(), runtime::Backend::VM) << Name;
    EXPECT_TRUE(P->usedFallback()) << Name;
    expectOracleParity(*P, 2);
  }
}

TEST(Plan, OracleTierServesEveryLayout) {
  // The last tier of the degradation chain is the dense oracle itself; it
  // must speak the halfcomplex and real layouts, not just interleaved.
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  for (const char *Name : {"rdft", "dct2"}) {
    runtime::PlanSpec Spec;
    Spec.Transform = Name;
    Spec.Size = 16;
    Spec.Want = runtime::Backend::Oracle;
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Name << ": " << Diags.dump();
    EXPECT_EQ(P->backend(), runtime::Backend::Oracle) << Name;
    expectOracleParity(*P, 2);
  }
}

/// Doubles spanned by \p H vectors of \p Len under one side of a layout.
std::int64_t layoutExtent(std::int64_t H, std::int64_t Len, std::int64_t Stride,
                          std::int64_t Dist) {
  const std::int64_t Span = (Len - 1) * Stride + 1;
  return (H - 1) * (Dist ? Dist : Span) + Span;
}

TEST(Plan, StridedBatchLayoutMatchesDenseAndSparesPadding) {
  // Fixed-seed sweep over every staging combination: tier x transform x
  // layout x batch size x threads, out of place and in place. Each vector
  // must be bit-identical to a per-vector execute of its gathered input,
  // and doubles the output layout never addresses keep their bytes.
  struct Tier {
    const char *Name;
    runtime::Backend Want;
    runtime::CodegenMode Codegen;
  };
  std::vector<Tier> Tiers = {
      {"vm", runtime::Backend::VM, runtime::CodegenMode::Auto},
      {"oracle", runtime::Backend::Oracle, runtime::CodegenMode::Auto}};
  if (perf::NativeModule::available()) {
    Tiers.push_back(
        {"scalar", runtime::Backend::Native, runtime::CodegenMode::Scalar});
    if (codegen::vectorBackendAvailable())
      Tiers.push_back(
          {"vector", runtime::Backend::Native, runtime::CodegenMode::Vector});
  }

  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  unsigned Seed = 0;
  for (const Tier &TierCase : Tiers) {
    for (const char *Name : {"fft", "rdft", "dct2"}) {
      runtime::PlanSpec Spec;
      Spec.Transform = Name;
      Spec.Size = 8;
      Spec.Want = TierCase.Want;
      Spec.Codegen = TierCase.Codegen;
      auto P = Planner.plan(Spec);
      ASSERT_TRUE(P) << Name << " " << TierCase.Name << ": " << Diags.dump();
      const std::int64_t Len = P->vectorLen();

      for (std::int64_t H : {std::int64_t(1), std::int64_t(P->lanes()) + 1}) {
        // {HowMany, StrideX, DistX, StrideY, DistY}: dense, distinct
        // input/output strides, interleaved vectors, padded dists.
        const runtime::BatchLayout Layouts[] = {{H, 1, 0, 1, 0},
                                                {H, 2, 0, 3, 0},
                                                {H, H, 1, H, 1},
                                                {H, 1, Len + 3, 1, Len + 5}};
        for (const runtime::BatchLayout &Base : Layouts) {
          for (int Threads : {1, 3}) {
            for (bool InPlace : {false, true}) {
              runtime::BatchLayout L = Base;
              if (InPlace) {
                L.StrideY = L.StrideX;
                L.DistY = L.DistX;
              }
              std::ostringstream Case;
              Case << Name << " " << TierCase.Name << " H=" << H
                   << " stride " << L.StrideX << "/" << L.StrideY << " dist "
                   << L.DistX << "/" << L.DistY << " threads=" << Threads
                   << (InPlace ? " in place" : "");
              const std::vector<double> X0 = randomRealVector(
                  static_cast<size_t>(
                      layoutExtent(H, Len, L.StrideX, L.DistX)),
                  ++Seed);
              std::vector<double> X = X0;
              std::vector<double> YOut(static_cast<size_t>(layoutExtent(
                                           H, Len, L.StrideY, L.DistY)),
                                       -9.0);
              std::vector<double> &Y = InPlace ? X : YOut;
              const std::vector<double> Y0 = Y;
              ASSERT_EQ(P->executeBatch(Y.data(), X.data(), L,
                                        support::Deadline(), Threads),
                        runtime::ExecStatus::Ok)
                  << Case.str();

              const std::int64_t DX =
                  L.DistX ? L.DistX : (Len - 1) * L.StrideX + 1;
              const std::int64_t DY =
                  L.DistY ? L.DistY : (Len - 1) * L.StrideY + 1;
              std::vector<bool> Addressed(Y.size(), false);
              std::vector<double> DIn(static_cast<size_t>(Len)),
                  DOut(static_cast<size_t>(Len)), Got(DOut.size());
              for (std::int64_t V = 0; V != H; ++V) {
                for (std::int64_t I = 0; I != Len; ++I) {
                  const auto YI = static_cast<size_t>(V * DY + I * L.StrideY);
                  DIn[static_cast<size_t>(I)] =
                      X0[static_cast<size_t>(V * DX + I * L.StrideX)];
                  Got[static_cast<size_t>(I)] = Y[YI];
                  Addressed[YI] = true;
                }
                P->execute(DOut.data(), DIn.data());
                EXPECT_EQ(std::memcmp(Got.data(), DOut.data(),
                                      DOut.size() * sizeof(double)),
                          0)
                    << Case.str() << ": vector " << V;
              }
              std::int64_t PadsWritten = 0;
              for (size_t I = 0; I != Y.size(); ++I)
                PadsWritten += !Addressed[I] && std::memcmp(&Y[I], &Y0[I],
                                                            sizeof(double));
              EXPECT_EQ(PadsWritten, 0) << Case.str();
            }
          }
        }
      }

      // An expired deadline skips every lane group of a strided batch.
      const std::int64_t H = P->lanes() + 1;
      const runtime::BatchLayout L = {H, 2, 0, 3, 0};
      std::vector<double> X(static_cast<size_t>(layoutExtent(H, Len, 2, 0)),
                            0.5);
      std::vector<double> Y(static_cast<size_t>(layoutExtent(H, Len, 3, 0)),
                            -3.0);
      support::Deadline Dead;
      Dead.cancel();
      EXPECT_EQ(P->executeBatch(Y.data(), X.data(), L, Dead, 3),
                runtime::ExecStatus::DeadlineExceeded)
          << Name << " " << TierCase.Name;
      for (double V : Y)
        ASSERT_EQ(V, -3.0) << Name << " " << TierCase.Name
                           << ": an expired strided batch touched Y";
    }
  }
}

TEST(Plan, StridedBatchDeadlineLeavesSkippedVectorsUntouched) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 8;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();

  runtime::BatchLayout BL;
  BL.HowMany = 5;
  BL.StrideX = BL.StrideY = 2;
  const std::int64_t Span = (P->vectorLen() - 1) * 2 + 1;
  std::vector<double> X(static_cast<size_t>(BL.HowMany * Span), 0.5);
  std::vector<double> Y(X.size(), -3.0);
  support::Deadline Dead = support::Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(P->executeBatch(Y.data(), X.data(), BL, Dead),
            runtime::ExecStatus::DeadlineExceeded);
  for (double V : Y)
    EXPECT_EQ(V, -3.0) << "a rejected strided batch must not touch Y";
}

TEST(Runtime, AlignedBufferStagingIsCacheLineAligned) {
  // Plan::run asserts its staging pointers sit on
  // AlignedBuffer::Alignment; this pins the allocator contract it leans on.
  for (size_t N : {size_t(1), size_t(33), size_t(1024)}) {
    runtime::AlignedBuffer B(N);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B.data()) %
                  runtime::AlignedBuffer::Alignment,
              0u)
        << "N=" << N;
    B.resize(N * 3 + 7);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(B.data()) %
                  runtime::AlignedBuffer::Alignment,
              0u)
        << "after resize, N=" << N;
  }
}

TEST(Plan, SpecKeysDistinguishTransformsAndShapes) {
  runtime::PlanSpec Fft;
  Fft.Size = 64;
  runtime::PlanSpec Rdft = Fft;
  Rdft.Transform = "rdft";
  // Distinct transforms never share a registry/wisdom slot, and the empty
  // datatype resolves to each transform's natural datatype.
  EXPECT_NE(Fft.key(), Rdft.key());
  EXPECT_EQ(Fft.key().rfind("fft 64 complex", 0), 0u) << Fft.key();
  EXPECT_EQ(Rdft.key().rfind("rdft 64 real", 0), 0u) << Rdft.key();

  runtime::PlanSpec Shaped;
  Shaped.Shape = {8, 8};
  Shaped.Size = 64; // The planner would derive this; keys must differ anyway.
  EXPECT_NE(Shaped.key().find(" S8x8"), std::string::npos) << Shaped.key();
  EXPECT_NE(Shaped.key(), Fft.key());
}

TEST(Planner, WisdomKeysDistinguishRdftFromFft) {
  SPL_SKIP_IF_FAULTS_ARMED();
  // rdft searches the same complex-FFT space as fft but records wisdom
  // under its own transform token — a host whose fft wisdom says
  // "radix-8 everywhere" must not silently impose it on rdft and vice
  // versa (regression for the SearchOptions::Transform plumbing).
  std::string Path =
      "/tmp/spl-transforms-wisdom-" + std::to_string(getpid()) + ".tmp";
  ::unlink(Path.c_str());
  Diagnostics Diags;
  auto Opts = testOptions();
  Opts.UseWisdom = true;
  Opts.WisdomPath = Path;
  runtime::Planner Planner(Diags, Opts);
  for (const char *Name : {"fft", "rdft"}) {
    runtime::PlanSpec Spec;
    Spec.Transform = Name;
    Spec.Size = 32;
    Spec.Want = runtime::Backend::VM;
    ASSERT_TRUE(Planner.plan(Spec)) << Name << ": " << Diags.dump();
  }
  Planner.saveWisdom();

  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::ostringstream SS;
  SS << In.rdbuf();
  const std::string Text = SS.str();
  // Keys carry the transform token plus search-knob suffix, e.g.
  // "rdft-L16-k3 32 complex ..." — rdft entries never collide with fft's.
  EXPECT_NE(Text.find("rdft-"), std::string::npos) << Text;
  bool SawPlainFft = false;
  std::istringstream Lines(Text);
  for (std::string Line; std::getline(Lines, Line);)
    if (Line.find(" fft-") != std::string::npos &&
        Line.find("rdft") == std::string::npos)
      SawPlainFft = true;
  EXPECT_TRUE(SawPlainFft) << Text;
  removeRecordFile(Path);
}

TEST(PlanRegistry, PressuredPlansAreNotMemoized) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanRegistry Registry(Planner);
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  Spec.Want = runtime::Backend::VM;

  support::Deadline Dead = support::Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  runtime::PlanError Err = runtime::PlanError::None;
  auto P1 = Registry.acquire(Spec, Dead, &Err);
  ASSERT_TRUE(P1) << Diags.dump();
  EXPECT_TRUE(P1->deadlinePressured());

  // The next unpressured caller must get a fresh full-quality plan, not
  // the degraded one — and THAT plan is the one the registry keeps.
  auto P2 = Registry.acquire(Spec);
  ASSERT_TRUE(P2) << Diags.dump();
  EXPECT_FALSE(P2->deadlinePressured());
  EXPECT_NE(P1.get(), P2.get());
  EXPECT_EQ(P2.get(), Registry.acquire(Spec).get());
}

/// Live threads in this process, or -1 where /proc/self/task is missing.
int liveThreads() {
  std::error_code EC;
  std::filesystem::directory_iterator It("/proc/self/task", EC), End;
  return EC ? -1 : static_cast<int>(std::distance(It, End));
}

TEST(Plan, BatchesOnManyPlansShareOneProcessPool) {
  const int Before = liveThreads();
  if (Before < 0)
    GTEST_SKIP() << "/proc/self/task is not available";
  std::vector<runtime::PlanSpec> Specs;
  auto Add = [&](const char *Transform, std::int64_t N) {
    runtime::PlanSpec Spec;
    Spec.Transform = Transform;
    Spec.Size = N;
    Spec.Want = runtime::Backend::VM; // Works on compiler-less hosts too.
    Specs.push_back(Spec);
  };
  for (std::int64_t N = 2; N <= 16; ++N) // Any size within the leaf.
    Add("fft", N);
  for (std::int64_t N = 32; N <= 256; N *= 2)
    Add("fft", N);
  for (std::int64_t N = 2; N <= 128; N *= 2)
    Add("wht", N);
  for (const char *Dct : {"dct2", "dct3", "dct4"})
    for (std::int64_t N = 2; N <= 256; N *= 2)
      Add(Dct, N);
  ASSERT_EQ(Specs.size(), 50u);

  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  std::vector<std::shared_ptr<runtime::Plan>> Plans; // All alive at the end.
  for (const runtime::PlanSpec &Spec : Specs) {
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Spec.key() << ": " << Diags.dump();
    const std::int64_t Len = P->vectorLen();
    std::vector<double> X = randomRealVector(static_cast<size_t>(4 * Len));
    std::vector<double> Y(X.size());
    for (int T = 1; T <= 4; ++T)
      P->executeBatch(Y.data(), X.data(), 4, T);
    Plans.push_back(std::move(P));
  }
  const std::int64_t Len = Plans.back()->vectorLen();
  std::vector<double> X = randomRealVector(static_cast<size_t>(16 * Len));
  std::vector<double> Y(X.size());
  Plans.back()->executeBatch(Y.data(), X.data(), 16, 16);

  // Whatever the plan count and thread counts, at most the process pool's
  // workers can have appeared (none, if an earlier test made the pool).
  const int PoolSize =
      static_cast<int>(std::max(1u, ThreadPool::defaultThreads() - 1));
  EXPECT_LE(liveThreads(), Before + PoolSize);
}

TEST(Plan, ConcurrentMultiThreadedBatchesAreBitIdentical) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 64;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();

  constexpr std::int64_t Batch = 37; // Not a multiple of the thread count.
  const std::int64_t Len = P->vectorLen();
  const std::vector<double> X =
      randomRealVector(static_cast<size_t>(Batch * Len), 77);
  std::vector<double> Y1(X.size());
  P->executeBatch(Y1.data(), X.data(), Batch, 1);

  // Two callers run three-thread batches on the one plan at the same time;
  // neither may wait for the other, and both must match the serial bits.
  std::atomic<int> Mismatches{0};
  auto Caller = [&] {
    std::vector<double> Y(X.size());
    for (int Round = 0; Round != 20; ++Round) {
      std::fill(Y.begin(), Y.end(), -1.0);
      P->executeBatch(Y.data(), X.data(), Batch, 3);
      if (std::memcmp(Y.data(), Y1.data(), Y.size() * sizeof(double)) != 0)
        Mismatches.fetch_add(1);
    }
  };
  std::thread A(Caller), B(Caller);
  A.join();
  B.join();
  EXPECT_EQ(Mismatches.load(), 0);
}

TEST(Planner, RulePlannedCostComesFromTheLoweredPlan) {
  // A rule-planned transform is costed from the program the plan keeps:
  // the same op count as costing the rule separately, one lowering.
  Diagnostics Diags;
  runtime::Planner Planner(Diags, testOptions());
  const std::map<std::string, std::array<double, 3>> Expected = {
      {"dct2", {41, 289, 705}}, {"dct3", {41, 289, 705}},
      {"dct4", {56, 352, 832}}};
  for (const auto &[Transform, Costs] : Expected) {
    const std::int64_t Sizes[] = {8, 32, 64};
    for (int I = 0; I != 3; ++I) {
      runtime::PlanSpec Spec;
      Spec.Transform = Transform;
      Spec.Size = Sizes[I];
      Spec.Want = runtime::Backend::VM;
      auto P = Planner.plan(Spec);
      ASSERT_TRUE(P) << Diags.dump();
      EXPECT_EQ(P->searchCost(), Costs[I]) << Transform << " " << Sizes[I];
    }
  }

  telemetry::setMetricsEnabled(true);
  telemetry::Histogram &Optimize = telemetry::histogram("compile.optimize_ns");
  const std::uint64_t O0 = Optimize.snapshot().Count;
  runtime::PlanSpec Spec;
  Spec.Transform = "dct2";
  Spec.Size = 64;
  Spec.Want = runtime::Backend::VM;
  ASSERT_TRUE(Planner.plan(Spec)) << Diags.dump();
  EXPECT_EQ(Optimize.snapshot().Count - O0, 1u);
  telemetry::setMetricsEnabled(false);
  telemetry::resetAllMetrics();
}

} // namespace
