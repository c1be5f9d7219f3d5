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
#include "perf/KernelCache.h"
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
  /// call); Vector is GNU vector C for codegen::detectISA() (lanes()
  /// transform columns per call in the slot-major layout; SPL_VECTOR_ISA
  /// forces the ISA, and one the hardware lacks fails the trial). The two
  /// variants differ in their source, so they get distinct kernel-cache
  /// keys.
  codegen::CodegenVariant Variant = codegen::CodegenVariant::Scalar;

  /// Remaining caller budget for the build: the compiler subprocess runs
  /// under min(SPL_CC_TIMEOUT_MS, remaining), and an expired deadline
  /// fails fast with KernelErrorKind::CompileTimeout before compiling.
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

  /// Loads the kernel a kernel-cache plan record names, without its
  /// program: dlopens the artifact as entry point \p FnName, binds the
  /// record's tables and keeps their descriptor for the trial, and sizes
  /// the buffers from \p VectorLen doubles per transform. An artifact that
  /// fails to load is dropped from the cache and counted in
  /// kernelcache.corrupt_entries; null with \p Err filled.
  static std::unique_ptr<CompiledKernel>
  load(KernelCache::PlanRecord Record, const std::string &FnName,
       std::int64_t VectorLen, codegen::CodegenVariant Variant,
       KernelError *Err);

  /// The flags create() hands the C compiler for \p BuildOpts: ExtraFlags,
  /// plus the ISA's own flags for the vector variant.
  static std::string compilerFlags(const KernelBuildOptions &BuildOpts);

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

  /// The KernelCache::tablesBlob() bound into the kernel: its
  /// <FnName>_set_tables pointers point into it.
  const std::string &tables() const { return Tables; }

  /// The kernel-cache key of the artifact behind the kernel; "" when it is
  /// not in the cache.
  const std::string &cacheKey() const { return Mod->cacheKey(); }

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

  /// Proves the kernel once, bounded by \p TimeoutSeconds, in a fresh
  /// child of a resident trial runner: a small C program built once per
  /// process (an ordinary kernel-cache artifact when the cache is on),
  /// started on first use and kept for later trials. The child dlopens this
  /// kernel's module, maps and binds its tables (passed as an fd: a plan
  /// record kernel's first trial spends the descriptor of the `.tables`
  /// file its probe verified; any other trial writes the blob to an
  /// unlinked temp file), runs it on deterministic random data and checks
  /// every output is finite. A kernel that crashes, hangs, or emits
  /// NaN/Inf fails the trial without harming this process, and the cost
  /// does not grow with this process's RSS. A runner whose trial timed out
  /// is retired; every runner is reaped at exit.
  TrialResult trial(double TimeoutSeconds);

private:
  CompiledKernel() = default;

  /// Takes \p Mod and the tablesBlob() \p Tables and hands pointers into
  /// the blob to the module's <FnName>_set_tables hook (when there are
  /// any tables).
  static std::unique_ptr<CompiledKernel>
  bind(std::unique_ptr<NativeModule> Mod, const std::string &FnName,
       std::string Tables, KernelError *Err);

  std::unique_ptr<NativeModule> Mod;
  NativeModule::KernelFn Fn = nullptr;
  std::string Tables; ///< The tablesBlob(); outlives the module use.
  UniqueFd TablesFd;  ///< A plan record's verified `.tables` file.
  std::string FnName; ///< The kernel's entry point.
  std::int64_t InLen = 0, OutLen = 0;
  int Lanes = 1;
  codegen::CodegenVariant Variant = codegen::CodegenVariant::Scalar;
};

} // namespace perf
} // namespace spl

#endif // SPL_PERF_KERNELRUNNER_H
