//===- perf/KernelRunner.cpp - Run generated kernels natively -----------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "perf/KernelRunner.h"

#include "codegen/CEmitter.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"
#include "support/Timer.h"
#include "telemetry/Metrics.h"

#include <chrono>
#include <cmath>
#include <csignal>
#include <random>
#include <thread>

using namespace spl;
using namespace spl::perf;

const char *KernelError::kindName() const {
  switch (Kind) {
  case KernelErrorKind::None:
    return "ok";
  case KernelErrorKind::NoCompiler:
    return "no-compiler";
  case KernelErrorKind::NotRealTyped:
    return "not-real-typed";
  case KernelErrorKind::CompileFailed:
    return "compile-failed";
  case KernelErrorKind::CompileTimeout:
    return "compile-timeout";
  case KernelErrorKind::MissingSymbol:
    return "missing-symbol";
  case KernelErrorKind::TrialFailed:
    return "trial-failed";
  }
  return "unknown";
}

std::string KernelError::str() const {
  return Message.empty() ? std::string(kindName())
                         : std::string(kindName()) + ": " + Message;
}

std::unique_ptr<CompiledKernel>
CompiledKernel::create(const icode::Program &Final, KernelError *Err,
                       const KernelBuildOptions &BuildOpts) {
  auto Fail = [&](KernelErrorKind Kind, std::string Message) {
    if (Err)
      *Err = KernelError{Kind, std::move(Message)};
    return nullptr;
  };
  if (Err)
    *Err = KernelError();

  if (Final.Type != icode::DataType::Real)
    return Fail(KernelErrorKind::NotRealTyped,
                "program '" + Final.SubName +
                    "' is complex-typed; lower it to real first");
  if (!NativeModule::available())
    return Fail(KernelErrorKind::NoCompiler,
                "no system C compiler available (set SPL_CC to override)");

  const bool Vector = BuildOpts.Variant == codegen::CodegenVariant::Vector;
  std::string Flags = BuildOpts.ExtraFlags;
  std::string KeyTag;
  codegen::CEmitOptions CO;
  CO.ExternalTables = true;
  CO.ThreadSafe = BuildOpts.ThreadSafe;
  if (Vector) {
    if (fault::at("vector-compile"))
      return Fail(KernelErrorKind::CompileFailed,
                  fault::describe("vector-compile"));
    CO.ISA = BuildOpts.ISA;
    std::string ISAFlags = codegen::isaCompilerFlags(BuildOpts.ISA);
    if (!ISAFlags.empty())
      Flags += " " + ISAFlags;
    KeyTag = std::string("vector:") + codegen::isaName(BuildOpts.ISA);
  }
  const int Lanes = codegen::laneCount(CO.ISA);
  auto Start = std::chrono::steady_clock::now();
  const std::string Code = codegen::emitC(Final, CO);
  if (Vector) {
    static telemetry::Counter &VectorKernels =
        telemetry::counter("codegen.vector_kernels");
    static telemetry::Histogram &VectorNs =
        telemetry::histogram("codegen.vector_ns");
    VectorNs.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count()));
    VectorKernels.add();
  }

  std::string CompileError;
  bool TimedOut = false;
  auto Mod = NativeModule::compile(Code, Final.SubName, &CompileError, Flags,
                                   &TimedOut, KeyTag, BuildOpts.Deadline);
  if (!Mod)
    return Fail(TimedOut ? KernelErrorKind::CompileTimeout
                         : KernelErrorKind::CompileFailed,
                CompileError);

  auto K = std::unique_ptr<CompiledKernel>(new CompiledKernel());
  K->Fn = Mod->fn();
  K->Lanes = Lanes;
  K->Variant = BuildOpts.Variant;
  K->InLen = (Final.LoweredToReal ? Final.InSize * 2 : Final.InSize) * Lanes;
  K->OutLen =
      (Final.LoweredToReal ? Final.OutSize * 2 : Final.OutSize) * Lanes;

  if (!Final.Tables.empty()) {
    for (const auto &T : Final.Tables) {
      std::vector<double> Flat(T.size());
      for (size_t I = 0; I != T.size(); ++I)
        Flat[I] = T[I].real();
      K->Tables.push_back(std::move(Flat));
    }
    using SetFn = void (*)(const double *const *);
    std::string SetName = Final.SubName + "_set_tables";
    auto Set = reinterpret_cast<SetFn>(Mod->symbol(SetName.c_str()));
    if (!Set)
      return Fail(KernelErrorKind::MissingSymbol,
                  "generated module lacks " + SetName);
    std::vector<const double *> Ptrs;
    for (const auto &T : K->Tables)
      Ptrs.push_back(T.data());
    Set(Ptrs.data());
  }
  K->Mod = std::move(Mod);
  return K;
}

CompiledKernel::TrialResult
CompiledKernel::trial(double TimeoutSeconds) const {
  // Consume the fault budgets in the parent: the forked child's memory is a
  // throwaway copy, so decrements inside it would not stick.
  const bool InjectCrash = fault::at("trial-crash");
  const bool InjectHang = fault::at("trial-hang");

  auto Run = [&]() -> int {
    if (InjectCrash)
      ::raise(SIGSEGV);
    if (InjectHang)
      std::this_thread::sleep_for(std::chrono::seconds(600));
    std::mt19937 Gen(17);
    std::uniform_real_distribution<double> Dist(-1.0, 1.0);
    std::vector<double> X(static_cast<size_t>(InLen));
    std::vector<double> Y(static_cast<size_t>(OutLen), 0.0);
    for (double &V : X)
      V = Dist(Gen);
    Fn(Y.data(), X.data());
    for (double V : Y)
      if (!std::isfinite(V))
        return 2;
    return 0;
  };

  GuardedResult G = runGuarded(Run, TimeoutSeconds);
  TrialResult T;
  if (G.ok()) {
    T.Ok = true;
    return T;
  }
  if (G.TimedOut)
    T.Reason = "trial execution timed out after " +
               std::to_string(TimeoutSeconds) +
               " s (see SPL_TRIAL_TIMEOUT_MS)";
  else if (G.Signal != 0)
    T.Reason = "trial execution died on signal " + std::to_string(G.Signal);
  else if (G.ExitCode == 2)
    T.Reason = "trial execution produced non-finite output";
  else
    T.Reason = "trial execution failed (" + G.describe() + ")";
  return T;
}

double CompiledKernel::time(int Repeats) const {
  std::mt19937 Gen(11);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<double> X(InLen), Y(OutLen, 0.0);
  for (double &V : X)
    V = Dist(Gen);
  return timeBestOf([&] { Fn(Y.data(), X.data()); }, Repeats);
}
