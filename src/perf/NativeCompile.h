//===- perf/NativeCompile.h - Compile-and-load evaluation -------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles emitted C code with the system C compiler and loads it with
/// dlopen. This is the honest timing path for the benchmark harnesses: the
/// generated code runs as native machine code, exactly as the paper's
/// back-end Fortran/C compilers produced it. Falls back gracefully (callers
/// check available()) when no compiler is installed.
///
/// Compiler invocations run through support/Subprocess: wall-clock bounded
/// (SPL_CC_TIMEOUT_MS, default 60 s), output captured into the error
/// message, one bounded retry on transient failure (compiler crash or
/// timeout), and SPL_FAULT sites on every failure path — see
/// docs/RELIABILITY.md.
///
/// When the persistent kernel cache is enabled (perf/KernelCache.h,
/// docs/KERNEL_CACHE.md) compile() probes it before spawning the compiler
/// and maps a verified cached artifact directly; fresh compiles populate
/// the cache under a per-key flock so concurrent processes build each
/// kernel at most once. native.compiles counts only real compiler
/// invocations, so a fully warm run shows native.compiles == 0.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_PERF_NATIVECOMPILE_H
#define SPL_PERF_NATIVECOMPILE_H

#include "support/Deadline.h"

#include <memory>
#include <optional>
#include <string>

namespace spl {
namespace perf {

/// A fresh temp path stem, `<TMPDIR or /tmp>/spl-native-<pid>-<n>`; every
/// temp artifact of this process is one stem plus a suffix.
std::string tempStem();

/// A loaded shared object holding one generated kernel.
class NativeModule {
public:
  /// Signature of generated kernels without stride parameters.
  using KernelFn = void (*)(double *Y, const double *X);

  /// Compiles \p CSource and loads symbol \p FnName. On failure returns
  /// nullptr and, when \p Error is non-null, stores the compiler output.
  /// \p TimedOut (when non-null) reports whether the failure was the
  /// compile deadline expiring rather than a compiler diagnostic.
  /// \p Deadline caps the invocation by the caller's remaining budget: the
  /// effective subprocess timeout is min(SPL_CC_TIMEOUT_MS, remaining), and
  /// an already-expired deadline fails fast (reported through \p TimedOut)
  /// without spawning the compiler. Kernel-cache hits ignore the deadline —
  /// a map is effectively free. Fresh compiles are additionally gated by the
  /// process-wide support::compileBreaker(): while it is open they fail
  /// fast with the breaker's describe() message, and every real compiler
  /// outcome (success / failure / timeout) feeds the breaker's state.
  static std::unique_ptr<NativeModule>
  compile(const std::string &CSource, const std::string &FnName,
          std::string *Error = nullptr,
          const std::string &ExtraFlags = "-O2", bool *TimedOut = nullptr,
          const support::Deadline &Deadline = support::Deadline());

  /// True when a working C compiler was found on this machine (cached).
  static bool available();

  /// The compiler's identity string: the SPL_CC command plus the first
  /// line of its --version output (captured by the same probe as
  /// available(), so the warm path never spawns it). Part of the kernel-cache
  /// key — a compiler upgrade invalidates every cached artifact.
  static const std::string &compilerIdentity();

  /// The per-invocation compile deadline (SPL_CC_TIMEOUT_MS, default 60 s).
  static double compileTimeoutSeconds();

  /// dlopens the kernel-cache artifact \p SoPath (which stays the cache's)
  /// and resolves \p FnName; null with \p Error filled on failure.
  static std::unique_ptr<NativeModule> loadCached(const std::string &SoPath,
                                                  const std::string &FnName,
                                                  std::string *Error);

  /// Builds \p CSource into an executable through the compiler
  /// invocation compile() uses (SPL_CC, \p ExtraFlags, the breaker, the
  /// retry and the fault sites), counted in native.runner_builds rather
  /// than native.compiles. With the kernel cache on, the executable is an
  /// ordinary artifact under key(\p CSource, "main", \p ExtraFlags), cached
  /// through the same probe, population lock, re-probe and insert as
  /// compile(): a hit is copied out instead of compiled.
  /// Returns the path of the caller's own copy (a tempStem() file the
  /// caller removes), or "" with \p Error filled.
  static std::string compileExecutable(const std::string &CSource,
                                       const std::string &ExtraFlags,
                                       std::string *Error);

  KernelFn fn() const { return Fn; }

  /// The shared object this module was loaded from.
  const std::string &soPath() const { return SoPath; }

  /// The KernelCache::key() of the cached artifact this module was loaded
  /// from or inserted as; "" when the cache was off or the insert failed.
  const std::string &cacheKey() const { return CacheKey; }

  /// Looks up an additional symbol (e.g. the <name>_set_tables hook emitted
  /// with CEmitOptions::ExternalTables). Null when absent.
  void *symbol(const char *Name) const;

  ~NativeModule();
  NativeModule(const NativeModule &) = delete;
  NativeModule &operator=(const NativeModule &) = delete;

private:
  NativeModule() = default;

  /// dlopens \p SoPath and resolves \p FnName, timed as plan.dlopen_ns.
  /// \p OwnsSo decides whether the module deletes the .so in its
  /// destructor: true for freshly compiled temp artifacts, false for files
  /// owned by the kernel cache.
  static std::unique_ptr<NativeModule> loadModule(const std::string &SoPath,
                                                  const std::string &FnName,
                                                  bool OwnsSo,
                                                  std::string *Error);

  /// The uncached compile path: write source, spawn the compiler, load.
  static std::unique_ptr<NativeModule>
  compileFresh(const std::string &CSource, const std::string &FnName,
               std::string *Error, const std::string &ExtraFlags,
               bool *TimedOut, const support::Deadline &Deadline);

  void *Handle = nullptr;
  KernelFn Fn = nullptr;
  std::string SoPath;
  std::string CacheKey;
  bool OwnsSo = true;
};

} // namespace perf
} // namespace spl

#endif // SPL_PERF_NATIVECOMPILE_H
