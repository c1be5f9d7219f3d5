//===- tests/FaultInjectionTest.cpp - SPL_FAULT end-to-end tests ---------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives every SPL_FAULT site (support/FaultInjection.h) through the real
/// pipeline: compiler invocations that fail, crash or hang; symbol lookups
/// that vanish; wisdom I/O that breaks; evaluator measurements and trial
/// executions that never return. Each test asserts the corresponding
/// degradation behaves — typed errors, bounded wall-clock, and a plan that
/// still computes the right numbers on whatever tier the chain lands on.
/// A kernel loaded from a kernel-cache plan record walks the same chain:
/// its VM demotion runs on the lazily lowered program.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "driver/Compiler.h"
#include "frontend/Parser.h"
#include "ir/Transforms.h"
#include "perf/KernelCache.h"
#include "perf/KernelRunner.h"
#include "perf/NativeCompile.h"
#include "runtime/Planner.h"
#include "search/DPSearch.h"
#include "search/Evaluator.h"
#include "search/PlanCache.h"
#include "support/Diagnostics.h"
#include "support/Timer.h"
#include "telemetry/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace spl;
using namespace spl::test;

namespace {

/// Saves and restores the SPL_FAULT environment around every test (and
/// re-parses the budget table), so this suite composes with an externally
/// armed fault matrix instead of leaking arms into later suites.
class FaultTest : public ::testing::Test {
protected:
  void SetUp() override {
    const char *Old = std::getenv("SPL_FAULT");
    HadOld = Old != nullptr;
    if (HadOld)
      OldValue = Old;
    arm(nullptr);
  }

  void TearDown() override {
    if (HadOld)
      setenv("SPL_FAULT", OldValue.c_str(), 1);
    else
      unsetenv("SPL_FAULT");
    fault::reset();
  }

  /// Re-arms SPL_FAULT with \p Spec (null or empty disarms).
  void arm(const char *Spec) {
    if (Spec && *Spec)
      setenv("SPL_FAULT", Spec, 1);
    else
      unsetenv("SPL_FAULT");
    fault::reset();
  }

  /// (F 4) compiled down to a real-typed, kernel-ready i-code program.
  icode::Program smallProgram() {
    Diagnostics Diags;
    driver::Compiler C(Diags);
    driver::CompilerOptions Opts;
    Opts.UnrollThreshold = 16;
    Opts.EmitCode = false;
    DirectiveState Dirs;
    Dirs.SubName = "f4k";
    auto Unit =
        C.compileFormula(parseFormulaString("(F 4)", Diags), Dirs, Opts);
    EXPECT_TRUE(Unit) << Diags.dump();
    return Unit->Final;
  }

  runtime::PlannerOptions chainOptions() {
    runtime::PlannerOptions O;
    O.UseWisdom = false; // Each test plans from scratch, hermetically.
    return O;
  }

  bool HadOld = false;
  std::string OldValue;
};

TEST_F(FaultTest, UnarmedFastPathNeverFires) {
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::at("native-compile"));
  EXPECT_FALSE(fault::at("no-such-site"));
}

TEST_F(FaultTest, BudgetsLimitFirings) {
  arm("native-compile:2,dlsym");
  EXPECT_TRUE(fault::armed());
  EXPECT_TRUE(fault::at("native-compile"));
  EXPECT_TRUE(fault::at("native-compile"));
  EXPECT_FALSE(fault::at("native-compile")) << "budget of 2 must be spent";
  EXPECT_TRUE(fault::at("dlsym"));
  EXPECT_TRUE(fault::at("dlsym")) << "no budget means unlimited";
  EXPECT_FALSE(fault::at("vm-exec")) << "unarmed site must stay quiet";
  EXPECT_NE(fault::describe("dlsym").find("dlsym"), std::string::npos);
}

TEST_F(FaultTest, CompileFaultYieldsTypedError) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  auto P = smallProgram();
  arm("native-compile");
  perf::KernelError Err;
  auto K = perf::CompiledKernel::create(P, &Err);
  EXPECT_FALSE(K);
  EXPECT_EQ(Err.Kind, perf::KernelErrorKind::CompileFailed) << Err.str();
  EXPECT_NE(Err.Message.find("injected fault"), std::string::npos)
      << Err.str();
}

TEST_F(FaultTest, CompilerCrashIsRetriedOnce) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  auto P = smallProgram();
  // Exactly one crashed invocation: the bounded retry must absorb it.
  arm("native-compile-crash:1");
  perf::KernelError Err;
  auto K = perf::CompiledKernel::create(P, &Err);
  EXPECT_TRUE(K) << Err.str();

  // Two crashes exhaust the single retry and surface as a typed failure.
  arm("native-compile-crash:2");
  K = perf::CompiledKernel::create(P, &Err);
  EXPECT_FALSE(K);
  EXPECT_EQ(Err.Kind, perf::KernelErrorKind::CompileFailed) << Err.str();
  EXPECT_NE(Err.Message.find("signal"), std::string::npos) << Err.str();
}

TEST_F(FaultTest, CompileHangIsKilledAtTheDeadline) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  auto P = smallProgram();
  setenv("SPL_CC_TIMEOUT_MS", "300", 1);
  arm("native-compile-hang");
  Timer T;
  perf::KernelError Err;
  auto K = perf::CompiledKernel::create(P, &Err);
  unsetenv("SPL_CC_TIMEOUT_MS");
  EXPECT_FALSE(K);
  EXPECT_EQ(Err.Kind, perf::KernelErrorKind::CompileTimeout) << Err.str();
  // Two bounded attempts at ~0.3 s each, nothing like the 600 s sleep the
  // injected child was put to.
  EXPECT_LT(T.seconds(), 30.0);
}

TEST_F(FaultTest, MissingSymbolIsReported) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  auto P = smallProgram();
  arm("dlsym:1");
  perf::KernelError Err;
  auto K = perf::CompiledKernel::create(P, &Err);
  EXPECT_FALSE(K);
  EXPECT_NE(Err.Message.find("not found"), std::string::npos) << Err.str();
}

TEST_F(FaultTest, WisdomIOFaultsAreSoftFailures) {
  Diagnostics Diags;
  search::PlanCache Cache(Diags);
  search::PlanKey K;
  K.Transform = "fft";
  K.Size = 8;
  K.Datatype = "complex";
  K.UnrollThreshold = 16;
  K.Evaluator = "opcount";
  K.Host = search::PlanCache::hostFingerprint();
  Cache.insert(K, {search::PlanEntry{"(F 8)", 1.0}});

  std::string Path =
      "/tmp/spl-fault-wisdom-" + std::to_string(getpid()) + ".txt";
  arm("wisdom-save");
  EXPECT_FALSE(Cache.save(Path));
  arm("wisdom-load");
  EXPECT_FALSE(Cache.load(Path));
  arm(nullptr);
  EXPECT_TRUE(Cache.save(Path));
  EXPECT_TRUE(Cache.load(Path));
  removeRecordFile(Path);
  // Soft failures: warnings only, never errors.
  EXPECT_EQ(Diags.errorCount(), 0u) << Diags.dump();
}

TEST_F(FaultTest, EvaluatorHangScoresInfiniteCost) {
  Diagnostics Diags;
  driver::CompilerOptions CO;
  CO.EmitCode = false;
  search::VMTimeEvaluator Eval(Diags, CO, /*Repeats=*/1);
  Eval.setTimingBudget(/*TimeoutSeconds=*/0.2, /*Retries=*/1);
  arm("eval-hang");
  auto F = parseFormulaString("(F 4)", Diags);
  Timer T;
  auto C = Eval.cost(F);
  ASSERT_TRUE(C) << "a timed-out candidate is scored, not dropped";
  EXPECT_TRUE(std::isinf(*C));
  EXPECT_LT(T.seconds(), 10.0) << "two 0.2 s attempts, not a real hang";
  EXPECT_EQ(Diags.errorCount(), 0u) << Diags.dump();
}

TEST_F(FaultTest, SearchSurvivesAHangingCandidate) {
  Diagnostics Diags;
  driver::CompilerOptions CO;
  CO.EmitCode = false;
  search::VMTimeEvaluator Eval(Diags, CO, /*Repeats=*/1);
  Eval.setTimingBudget(/*TimeoutSeconds=*/0.2, /*Retries=*/0);
  arm("eval-hang:1"); // Exactly one measurement hangs mid-search.
  search::SearchOptions SO;
  SO.MaxLeaf = 4;
  search::DPSearch Search(Eval, Diags, SO, nullptr);
  auto Best = Search.best(8);
  ASSERT_TRUE(Best) << Diags.dump();
  EXPECT_TRUE(std::isfinite(Best->Cost))
      << "the infinite-cost candidate must lose, not win";
}

TEST_F(FaultTest, TrialCrashDemotesToVm) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  arm("trial-crash");
  Diagnostics Diags;
  runtime::Planner Planner(Diags, chainOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 8;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();
  EXPECT_EQ(P->backend(), runtime::Backend::VM);
  EXPECT_TRUE(P->usedFallback());
  EXPECT_NE(P->fallbackReason().find("trial-failed"), std::string::npos)
      << P->fallbackReason();
  EXPECT_NE(P->fallbackReason().find("signal"), std::string::npos)
      << P->fallbackReason();
  EXPECT_EQ(Diags.errorCount(), 0u) << Diags.dump();
}

TEST_F(FaultTest, TrialHangIsBoundedByItsDeadline) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  setenv("SPL_TRIAL_TIMEOUT_MS", "300", 1);
  arm("trial-hang");
  Diagnostics Diags;
  runtime::Planner Planner(Diags, chainOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 8;
  Timer T;
  auto P = Planner.plan(Spec);
  unsetenv("SPL_TRIAL_TIMEOUT_MS");
  ASSERT_TRUE(P) << Diags.dump();
  EXPECT_EQ(P->backend(), runtime::Backend::VM);
  EXPECT_NE(P->fallbackReason().find("timed out"), std::string::npos)
      << P->fallbackReason();
  EXPECT_LT(T.seconds(), 30.0) << "the hung trial must be killed, not joined";
}

/// y0 = tab0[0] * x0, y1 = x1: a trial must bind the table (its fd rides
/// along with the request) to run the kernel at all, and a NaN in it
/// reaches y0.
std::unique_ptr<perf::CompiledKernel> tableKernel(double Table) {
  icode::Program P;
  P.SubName = "nan_trial";
  P.InSize = P.OutSize = 2;
  P.Type = icode::DataType::Real;
  P.Tables = {{Cplx(Table, 0)}};
  using icode::Affine;
  using icode::Operand;
  P.Body.push_back(icode::Instr::bin(
      icode::Op::Mul, Operand::vecElem(icode::VecOut, Affine(0)),
      Operand::tableElem(0, Affine(0)),
      Operand::vecElem(icode::VecIn, Affine(0))));
  P.Body.push_back(
      icode::Instr::copy(Operand::vecElem(icode::VecOut, Affine(1)),
                         Operand::vecElem(icode::VecIn, Affine(1))));
  perf::KernelError Err;
  auto K = perf::CompiledKernel::create(P, &Err);
  EXPECT_TRUE(K) << Err.str();
  return K;
}

TEST_F(FaultTest, NonFiniteTrialOutputFailsTheTrial) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  auto Finite = tableKernel(2.0);
  ASSERT_TRUE(Finite);
  perf::CompiledKernel::TrialResult T = Finite->trial(5.0);
  EXPECT_TRUE(T.Ok) << T.Reason;

  auto NaN = tableKernel(std::nan(""));
  ASSERT_TRUE(NaN);
  T = NaN->trial(5.0);
  EXPECT_FALSE(T.Ok);
  EXPECT_EQ(T.Reason, "trial execution produced non-finite output");
}

/// The resident trial runners: which trials keep a runner, which retire it,
/// and what replaces a dead one. Each test starts from one healthy trial,
/// so an idle runner is waiting.
class TrialRunnerTest : public FaultTest {
protected:
  void SetUp() override {
    FaultTest::SetUp();
    if (!perf::NativeModule::available())
      GTEST_SKIP() << "no system C compiler";
    telemetry::setMetricsEnabled(true);
    K = tableKernel(2.0);
    ASSERT_TRUE(K);
    ASSERT_TRUE(K->trial(5.0).Ok);
    Starts0 = starts();
  }

  void TearDown() override {
    telemetry::setMetricsEnabled(false);
    FaultTest::TearDown();
  }

  static std::uint64_t starts() {
    return telemetry::NativeRunnerStarts.value();
  }

  std::unique_ptr<perf::CompiledKernel> K;
  std::uint64_t Starts0 = 0;
};

TEST_F(TrialRunnerTest, CrashedTrialKeepsItsRunner) {
  arm("trial-crash");
  auto T = K->trial(5.0);
  EXPECT_FALSE(T.Ok);
  EXPECT_EQ(T.Reason, "trial execution died on signal 11");
  arm(nullptr);
  EXPECT_TRUE(K->trial(5.0).Ok);
  EXPECT_EQ(starts(), Starts0) << "a crash in the trial child is not the "
                                  "runner's: it serves the next trial";
}

TEST_F(TrialRunnerTest, HungTrialRetiresItsRunner) {
  arm("trial-hang");
  Timer Clock;
  auto T = K->trial(0.3);
  EXPECT_LT(Clock.seconds(), 10.0) << "the hung trial must be killed";
  EXPECT_FALSE(T.Ok);
  EXPECT_EQ(T.Reason, "trial execution timed out after 0.300000 s (see "
                      "SPL_TRIAL_TIMEOUT_MS)");
  arm(nullptr);
  EXPECT_TRUE(K->trial(5.0).Ok);
  EXPECT_EQ(starts(), Starts0 + 1) << "a timed-out runner is never reused";
}

TEST_F(TrialRunnerTest, KilledRunnerIsReplaced) {
  const std::vector<int> Pids = trialRunnerPids();
  ASSERT_FALSE(Pids.empty());
  for (int Pid : Pids)
    ::kill(Pid, SIGKILL);
  auto T = K->trial(5.0);
  EXPECT_TRUE(T.Ok) << T.Reason;
  EXPECT_EQ(starts(), Starts0 + 1);
  EXPECT_TRUE(K->trial(5.0).Ok);
  EXPECT_EQ(starts(), Starts0 + 1) << "the replacement serves later trials";
}

TEST_F(TrialRunnerTest, HungTrialDoesNotDelayAHealthyOne) {
  arm("trial-hang:1"); // Only the first trial hangs.
  std::atomic<bool> HungDone{false};
  perf::CompiledKernel::TrialResult Hung;
  std::thread Other([&] {
    Hung = K->trial(3.0);
    HungDone = true;
  });
  // Let the hanging trial's child start before the healthy trial does.
  auto Hanging = [] {
    for (int Runner : trialRunnerPids())
      if (!trialRunnerPids(Runner).empty())
        return true;
    return false;
  };
  while (!Hanging() && !HungDone)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Timer Clock;
  auto T = K->trial(5.0);
  EXPECT_TRUE(T.Ok) << T.Reason;
  EXPECT_LT(Clock.seconds(), 2.5);
  EXPECT_FALSE(HungDone) << "the healthy trial waited for the hung one";
  Other.join();
  EXPECT_FALSE(Hung.Ok);
  EXPECT_NE(Hung.Reason.find("timed out"), std::string::npos) << Hung.Reason;
}

TEST_F(FaultTest, OracleBackendCanBeRequestedDirectly) {
  Diagnostics Diags;
  runtime::Planner Planner(Diags, chainOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 8;
  Spec.Want = runtime::Backend::Oracle;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();
  EXPECT_EQ(P->backend(), runtime::Backend::Oracle);
  EXPECT_FALSE(P->usedFallback()) << "a direct request is not a demotion";

  auto X = randomVector(8);
  std::vector<double> XR(16), YR(16);
  for (int I = 0; I != 8; ++I) {
    XR[2 * I] = X[I].real();
    XR[2 * I + 1] = X[I].imag();
  }
  P->execute(YR.data(), XR.data());
  auto Want = dftMatrix(8).apply(X);
  double Max = 0;
  for (int I = 0; I != 8; ++I) {
    Max = std::max(Max, std::fabs(YR[2 * I] - Want[I].real()));
    Max = std::max(Max, std::fabs(YR[2 * I + 1] - Want[I].imag()));
  }
  EXPECT_LT(Max, 1e-10);
}

TEST_F(FaultTest, FullChainLandsOnTheOracleAndIsCorrect) {
  // The acceptance scenario: native compilation fails AND the VM tier is
  // faulted, so the chain must walk native -> vm -> oracle and the
  // resulting plan must still match the true DFT to 1e-10.
  arm("native-compile,vm-exec");
  Diagnostics Diags;
  runtime::Planner Planner(Diags, chainOptions());
  runtime::PlanSpec Spec;
  Spec.Size = 16;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();
  EXPECT_EQ(P->backend(), runtime::Backend::Oracle);
  EXPECT_TRUE(P->usedFallback());
  EXPECT_NE(P->fallbackReason().find("vm"), std::string::npos)
      << P->fallbackReason();
  EXPECT_EQ(Diags.errorCount(), 0u) << Diags.dump();

  auto X = randomVector(16);
  std::vector<double> XR(32), YR(32);
  for (int I = 0; I != 16; ++I) {
    XR[2 * I] = X[I].real();
    XR[2 * I + 1] = X[I].imag();
  }
  P->execute(YR.data(), XR.data());
  auto Want = dftMatrix(16).apply(X);
  double Max = 0;
  for (int I = 0; I != 16; ++I) {
    Max = std::max(Max, std::fabs(YR[2 * I] - Want[I].real()));
    Max = std::max(Max, std::fabs(YR[2 * I + 1] - Want[I].imag()));
  }
  EXPECT_LT(Max, 1e-10);

  // Batched dispatch works on the oracle tier too, bit-identically across
  // thread counts.
  std::vector<double> XB(4 * 32), Y1(4 * 32), Y4(4 * 32);
  for (int I = 0; I != 4 * 32; ++I)
    XB[static_cast<size_t>(I)] = XR[static_cast<size_t>(I) % 32];
  P->executeBatch(Y1.data(), XB.data(), 4, 1);
  P->executeBatch(Y4.data(), XB.data(), 4, 4);
  EXPECT_EQ(Y1, Y4);
}

/// Fault sites on a warm plan whose native kernel comes from a kernel-cache
/// plan record: each test first plans fft 32 healthy into a private cache.
class PlanRecordFaultTest : public FaultTest {
protected:
  void SetUp() override {
    FaultTest::SetUp();
    Saved = perf::KernelCache::config();
    Dir = ::testing::TempDir() + "spl-faultrec-" +
          std::to_string(static_cast<unsigned>(::getpid()));
    std::filesystem::remove_all(Dir);
    if (!perf::NativeModule::available() ||
        perf::KernelCache::buildId().empty())
      GTEST_SKIP() << "needs a C compiler and a build-id";
    telemetry::setMetricsEnabled(true);
    auto Cold = plan(options());
    ASSERT_TRUE(Cold);
    ASSERT_EQ(Cold->backend(), runtime::Backend::Native);
  }

  void TearDown() override {
    perf::KernelCache::configure(Saved);
    std::filesystem::remove_all(Dir);
    test::removeRecordFile(wisdomPath());
    telemetry::setMetricsEnabled(false);
    telemetry::resetAllMetrics();
    FaultTest::TearDown();
  }

  runtime::PlannerOptions options() {
    runtime::PlannerOptions O = chainOptions();
    O.KernelCacheDir = Dir;
    return O;
  }

  std::string wisdomPath() const { return Dir + ".wisdom"; }

  std::shared_ptr<runtime::Plan>
  plan(const runtime::PlannerOptions &O,
       const support::Deadline &D = support::Deadline()) {
    Diagnostics Diags;
    runtime::Planner Planner(Diags, O);
    runtime::PlanSpec Spec;
    Spec.Size = 32;
    auto P = Planner.plan(Spec, D);
    EXPECT_TRUE(P) << Diags.dump();
    EXPECT_EQ(Diags.errorCount(), 0u) << Diags.dump();
    EXPECT_TRUE(Planner.saveWisdom()) << Diags.dump();
    return P;
  }

  /// Max |plan - DFT| over one random vector.
  static double oracleError(runtime::Plan &P) {
    auto X = randomVector(32);
    std::vector<double> XR(64), YR(64);
    for (int I = 0; I != 32; ++I) {
      XR[2 * I] = X[I].real();
      XR[2 * I + 1] = X[I].imag();
    }
    P.execute(YR.data(), XR.data());
    auto Want = dftMatrix(32).apply(X);
    double Max = 0;
    for (int I = 0; I != 32; ++I) {
      Max = std::max(Max, std::fabs(YR[2 * I] - Want[I].real()));
      Max = std::max(Max, std::fabs(YR[2 * I + 1] - Want[I].imag()));
    }
    return Max;
  }

  std::uint64_t hits() const {
    return telemetry::counter("kernelcache.hits").value();
  }

  perf::KernelCache::Config Saved;
  std::string Dir;
};

TEST_F(PlanRecordFaultTest, TrialCrashOnARecordHitDemotesToVm) {
  const std::uint64_t Hits0 = hits();
  arm("trial-crash");
  auto P = plan(options());
  ASSERT_TRUE(P);
  EXPECT_GE(hits() - Hits0, 1u) << "the kernel must come from the record";
  EXPECT_EQ(P->backend(), runtime::Backend::VM);
  EXPECT_NE(P->fallbackReason().find("trial-failed"), std::string::npos)
      << P->fallbackReason();
  EXPECT_NE(P->fallbackReason().find("signal"), std::string::npos)
      << P->fallbackReason();
  EXPECT_FALSE(P->program().Body.empty());
  EXPECT_LT(oracleError(*P), 1e-10);
}

TEST_F(PlanRecordFaultTest, TrialHangOnARecordHitDemotesToVm) {
  const std::uint64_t Hits0 = hits();
  setenv("SPL_TRIAL_TIMEOUT_MS", "300", 1);
  arm("trial-hang");
  Timer T;
  auto P = plan(options());
  unsetenv("SPL_TRIAL_TIMEOUT_MS");
  ASSERT_TRUE(P);
  EXPECT_LT(T.seconds(), 30.0) << "the hung trial must be killed, not joined";
  EXPECT_GE(hits() - Hits0, 1u) << "the kernel must come from the record";
  EXPECT_EQ(P->backend(), runtime::Backend::VM);
  EXPECT_NE(P->fallbackReason().find("timed out"), std::string::npos)
      << P->fallbackReason();
  EXPECT_LT(oracleError(*P), 1e-10);
}

TEST_F(PlanRecordFaultTest, ForcedFailureAndSpentDeadlineIgnoreTheRecord) {
  // The plans here share wisdom, so the spent search at the end finds the
  // winner the first plan recorded, and with it the plan record.
  runtime::PlannerOptions O = options();
  O.UseWisdom = true;
  O.WisdomPath = wisdomPath();

  // A recorded kernel that fails its trial demotes the plan and leaves the
  // record as it was.
  arm("trial-crash");
  auto F = plan(O);
  arm(nullptr);
  ASSERT_TRUE(F);
  EXPECT_EQ(F->backend(), runtime::Backend::VM);
  EXPECT_NE(F->fallbackReason().find("trial-failed"), std::string::npos)
      << F->fallbackReason();
  EXPECT_LT(oracleError(*F), 1e-10);
  const std::uint64_t Hits0 = hits();
  auto Healthy = plan(O);
  ASSERT_TRUE(Healthy);
  EXPECT_GE(hits() - Hits0, 1u) << "the record must survive the failed trial";
  EXPECT_EQ(Healthy->backend(), runtime::Backend::Native);

  // A spent budget loads the recorded kernel (a map is free) but cannot
  // prove it, so the plan demotes rather than skipping the trial.
  support::Deadline Dead = support::Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t DeadHits0 = hits();
  auto D = plan(O, Dead);
  ASSERT_TRUE(D);
  EXPECT_GE(hits() - DeadHits0, 1u) << "the kernel must come from the record";
  EXPECT_TRUE(D->deadlinePressured());
  EXPECT_NE(D->backend(), runtime::Backend::Native);
  EXPECT_LT(oracleError(*D), 1e-10);
}

} // namespace
