//===- perf/KernelRunner.h - Run generated kernels natively -----*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience wrapper that takes a final i-code program, emits C with
/// run-time table binding, compiles it with the system compiler, loads it,
/// feeds it the twiddle tables, and offers buffers and timing — one call
/// from "searched formula" to "native numbers", used by the benchmark
/// harnesses and the examples.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_PERF_KERNELRUNNER_H
#define SPL_PERF_KERNELRUNNER_H

#include "codegen/VectorISA.h"
#include "icode/ICode.h"
#include "perf/NativeCompile.h"

#include <memory>
#include <string>
#include <vector>

namespace spl {
namespace perf {

/// Why building a native kernel failed. Every failure mode reports through
/// this type instead of aborting, so callers (the runtime planner in
/// particular) can distinguish "no compiler on this machine" from "this
/// program cannot be a native kernel" and fall back accordingly.
enum class KernelErrorKind {
  None,           ///< Success.
  NoCompiler,     ///< No working system C compiler (see SPL_CC).
  NotRealTyped,   ///< Program is complex-typed; the C backend needs real.
  CompileFailed,  ///< The C compiler or dlopen rejected the generated code.
  CompileTimeout, ///< The C compile exceeded SPL_CC_TIMEOUT_MS and was killed.
  MissingSymbol,  ///< Generated module lacks an expected symbol.
  TrialFailed,    ///< The kernel crashed or hung during trial execution.
};

/// A typed kernel-build error: machine-readable kind plus human detail.
struct KernelError {
  KernelErrorKind Kind = KernelErrorKind::None;
  std::string Message;

  explicit operator bool() const { return Kind != KernelErrorKind::None; }

  /// Stable lowercase token for the kind ("no-compiler", ...).
  const char *kindName() const;

  /// "<kind>: <message>" (or just the kind when there is no detail).
  std::string str() const;
};

/// Knobs for building a native kernel.
struct KernelBuildOptions {
  /// Emit reentrant code (no mutable static storage) so one kernel can run
  /// on many threads at once. Used by the runtime layer's batch dispatch.
  bool ThreadSafe = false;

  /// Flags handed to the system C compiler. The vector variant appends the
  /// ISA's own flags (codegen::isaCompilerFlags) on top.
  std::string ExtraFlags = "-O2";

  /// What codegen::emitC renders: Scalar is plain C (one transform per
  /// call); Vector is SIMD intrinsics for ISA (lanes() transform columns
  /// per call in the slot-major layout). The two variants get distinct
  /// kernel-cache keys.
  codegen::CodegenVariant Variant = codegen::CodegenVariant::Scalar;

  /// Instruction set for the Vector variant (ignored for Scalar).
  /// Defaults to the host probe; forcing an ISA the hardware lacks is the
  /// trial execution's problem (SIGILL in the forked guard).
  codegen::VectorISA ISA = codegen::detectISA();

  /// Remaining caller budget for the build: the compiler subprocess runs
  /// under min(SPL_CC_TIMEOUT_MS, remaining), and an expired deadline
  /// fails fast with KernelErrorKind::CompileTimeout before forking.
  /// Default: unbounded.
  support::Deadline Deadline;
};

/// A natively compiled, loaded and table-bound generated kernel.
class CompiledKernel {
public:
  /// Emits, compiles and loads \p Final. Returns null with \p Err filled
  /// (when non-null) on any failure: no C compiler, a complex-typed
  /// program, compilation/load trouble. Never aborts.
  static std::unique_ptr<CompiledKernel>
  create(const icode::Program &Final, KernelError *Err,
         const KernelBuildOptions &BuildOpts = KernelBuildOptions());

  /// Buffer lengths in doubles (2x the logical size for lowered-complex
  /// programs, additionally scaled by lanes() for vector kernels).
  std::int64_t inLen() const { return InLen; }
  std::int64_t outLen() const { return OutLen; }

  /// Transform columns computed per call: 1 for scalar kernels,
  /// laneCount(ISA) for vector kernels (slot-major layout, see
  /// codegen/CEmitter.h).
  int lanes() const { return Lanes; }

  /// The variant this kernel was built with.
  codegen::CodegenVariant variant() const { return Variant; }

  /// Runs the kernel once (one call computes lanes() transforms).
  void run(double *Y, const double *X) const { Fn(Y, X); }

  /// Best-of-\p Repeats seconds per kernel call on random data (divide by
  /// lanes() for seconds per transform).
  double time(int Repeats = 3) const;

  /// Outcome of a guarded trial execution.
  struct TrialResult {
    bool Ok = false;
    std::string Reason; ///< "died on signal 11", "timed out", ... when !Ok.
  };

  /// Proves the kernel once in a forked guard process bounded by
  /// \p TimeoutSeconds: runs it on deterministic random data and checks
  /// every output is finite. A kernel that crashes, hangs, or emits
  /// NaN/Inf fails the trial without harming this process. On platforms
  /// without fork the kernel runs inline (unguarded).
  TrialResult trial(double TimeoutSeconds) const;

private:
  CompiledKernel() = default;

  std::unique_ptr<NativeModule> Mod;
  NativeModule::KernelFn Fn = nullptr;
  std::vector<std::vector<double>> Tables; ///< Must outlive the module use.
  std::int64_t InLen = 0, OutLen = 0;
  int Lanes = 1;
  codegen::CodegenVariant Variant = codegen::CodegenVariant::Scalar;
};

} // namespace perf
} // namespace spl

#endif // SPL_PERF_KERNELRUNNER_H
