//===- perf/NativeCompile.cpp - Compile-and-load evaluation -----------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "perf/NativeCompile.h"

#include "perf/KernelCache.h"
#include "support/CircuitBreaker.h"
#include "support/FaultInjection.h"
#include "support/FileLock.h"
#include "support/RecordFile.h"
#include "support/Subprocess.h"
#include "telemetry/Trace.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <dlfcn.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace spl;
using namespace spl::perf;

namespace {

/// Compiler command; overridable with the SPL_CC environment variable. May
/// contain extra tokens ("gcc -pipe"), so it is split into argv form.
std::vector<std::string> ccArgv() {
  if (const char *Env = std::getenv("SPL_CC"))
    return splitCommandArgs(Env);
  return {"cc"};
}

/// One probe answers both "is there a compiler?" and "which one, exactly?"
/// so the warm (cache-hit) path never pays an extra compiler run for identity.
struct CcProbe {
  bool Available = false;
  std::string Identity;
};

const CcProbe &ccProbe() {
  // Initialized exactly once even when parallel search workers race here.
  static const CcProbe Cached = [] {
    CcProbe P;
    std::vector<std::string> Argv = ccArgv();
    std::ostringstream Cmd;
    for (size_t I = 0; I != Argv.size(); ++I)
      Cmd << (I ? " " : "") << Argv[I];
    Argv.push_back("--version");
    SubprocessOptions Opts;
    Opts.TimeoutSeconds = 10.0;
    SubprocessResult R = runSubprocess(Argv, Opts);
    P.Available = R.ok();
    std::string FirstLine = R.Output.substr(0, R.Output.find('\n'));
    P.Identity = Cmd.str() + (FirstLine.empty() ? "" : " | " + FirstLine);
    return P;
  }();
  return Cached;
}

/// One compiler invocation, with every fault-injection site that can afflict
/// it. The hang site swaps in a sleeping child so the real kill-on-expiry
/// path is exercised; the crash and plain-failure sites synthesize results.
SubprocessResult invokeCompiler(const std::vector<std::string> &Argv,
                                double TimeoutSeconds) {
  if (fault::at("native-compile")) {
    SubprocessResult R;
    R.ExitCode = 1;
    R.Output = fault::describe("native-compile");
    return R;
  }
  if (fault::at("native-compile-crash")) {
    SubprocessResult R;
    R.Signal = SIGSEGV;
    R.Output = fault::describe("native-compile-crash");
    return R;
  }
  SubprocessOptions Opts;
  Opts.TimeoutSeconds = TimeoutSeconds;
  if (fault::at("native-compile-hang"))
    return runSubprocess({"sh", "-c", "sleep 600"}, Opts);
  return runSubprocess(Argv, Opts);
}

/// Compiles \p CSource with \p ExtraFlags into a fresh temp artifact (a
/// shared object when \p Shared, else an executable), counted in \p Count.
/// This is the one compiler invocation: the deadline, the breaker, one
/// retry on a transient failure and the fault sites apply to every
/// artifact. Returns its path, or "" with \p Error (and \p TimedOut) set.
std::string compileToTemp(const std::string &CSource, bool Shared,
                          const std::string &ExtraFlags,
                          telemetry::Counter &Count, std::string *Error,
                          bool *TimedOut, const support::Deadline &Deadline) {
  // An exhausted caller budget fails fast before the source is even
  // written; this is the caller's deadline, not compiler sickness, so the
  // breaker does not hear about it.
  if (Deadline.expired()) {
    if (TimedOut)
      *TimedOut = true;
    if (Error)
      *Error = "compilation skipped: the caller's deadline is already "
               "spent (see --deadline-ms)";
    return "";
  }
  // While the breaker is open the compiler is presumed sick: fail fast and
  // let the planner degrade to the VM tier instead of spawning it.
  support::CircuitBreaker &Breaker = support::compileBreaker();
  if (!Breaker.allow()) {
    if (TimedOut)
      *TimedOut = false;
    if (Error)
      *Error = Breaker.describe();
    return "";
  }
  // Every admitted attempt MUST report back, or a half-open probe would
  // stay in flight forever and wedge the breaker open. Success is flipped
  // once the compiler invocation itself succeeds; failures on the way
  // (unwritable temp dir included) count against the dependency.
  struct BreakerOutcome {
    support::CircuitBreaker &B;
    bool Success = false;
    ~BreakerOutcome() { Success ? B.recordSuccess() : B.recordFailure(); }
  } Outcome{Breaker};
  std::string Stem = tempStem();
  std::string CPath = Stem + ".c";
  std::string OutPath = Shared ? Stem + ".so" : Stem;
  // Every exit removes the source; the artifact is the caller's (or
  // removed on the failure path below).
  struct SourceGuard {
    const std::string &Path;
    ~SourceGuard() { std::remove(Path.c_str()); }
  } Guard{CPath};

  {
    std::ofstream Out(CPath);
    if (!Out) {
      if (Error)
        *Error = "cannot write " + CPath;
      return "";
    }
    Out << CSource;
    if (!Out.good()) {
      if (Error)
        *Error = "error writing " + CPath;
      return "";
    }
  }

  std::vector<std::string> Argv = ccArgv();
  for (std::string &F : splitCommandArgs(ExtraFlags))
    Argv.push_back(std::move(F));
  if (Shared) {
    Argv.push_back("-shared");
    Argv.push_back("-fPIC");
  }
  Argv.push_back("-o");
  Argv.push_back(OutPath);
  Argv.push_back(CPath);
  if (!Shared)
    Argv.push_back("-ldl"); // dlopen is in libc only since glibc 2.34.

  // The compiler's leash is the smaller of the fixed env knob and the
  // caller's remaining budget — a request with 2 s left never waits 60 s
  // for a wedged cc.
  double Timeout = NativeModule::compileTimeoutSeconds();
  const double Remaining = Deadline.remainingSeconds();
  if (std::isfinite(Remaining))
    Timeout = Timeout > 0 ? std::min(Timeout, Remaining) : Remaining;
  Count.add();
  // One bounded retry, and only for transient failures (a crashed or
  // timed-out compiler); a deterministic nonzero exit is a real diagnostic
  // and retrying it would just double the latency of every bad kernel.
  SubprocessResult R;
  {
    telemetry::StageTimer T(telemetry::NativeCompileNs);
    for (int Attempt = 0;; ++Attempt) {
      R = invokeCompiler(Argv, Timeout);
      if (R.ok() || !R.transient() || Attempt >= 1)
        break;
      // The retry must fit the remaining budget too.
      if (Deadline.expired())
        break;
      telemetry::NativeCompileRetries.add();
    }
  }
  Outcome.Success = R.ok();
  if (!R.ok()) {
    telemetry::NativeCompileFailures.add();
    if (R.TimedOut)
      telemetry::NativeCompileTimeouts.add();
    if (TimedOut)
      *TimedOut = R.TimedOut;
    if (Error) {
      std::ostringstream SS;
      SS << "compilation " << (R.TimedOut ? "timed out" : "failed") << " ("
         << R.describe();
      if (R.TimedOut)
        SS << " after " << Timeout << " s; see SPL_CC_TIMEOUT_MS";
      SS << ")";
      if (!R.Output.empty())
        SS << ":\n" << R.Output;
      *Error = SS.str();
    }
    std::remove(OutPath.c_str());
    return "";
  }
  return OutPath;
}

/// The one cached compile, for kernels and the trial runner alike: probes
/// \p Key, and on a miss takes the key's population lock, probes again,
/// builds and inserts. Concurrent builders of one cold key (threads or
/// processes) block on the lock, and all but one \p Use the winner's
/// artifact. \p Use makes the result of a verified artifact's path (false:
/// unusable, build instead); \p Build returns the built artifact's path
/// ("" on failure). True when the result is in the cache under \p Key.
template <typename UseFn, typename BuildFn>
bool throughCache(const std::string &Key, UseFn Use, BuildFn Build) {
  auto Hit = [&] {
    std::optional<std::string> Path = KernelCache::probe(Key);
    return Path && Use(*Path);
  };
  if (Hit())
    return true;
  FileLock PL(KernelCache::populationLockPath(Key), LOCK_EX);
  if (Hit())
    return true;
  const std::string Built = Build();
  return !Built.empty() && KernelCache::insert(Key, Built);
}

} // namespace

std::string perf::tempStem() {
  static std::atomic<unsigned> Counter{0};
  std::string Dir = "/tmp";
  if (const char *Env = std::getenv("TMPDIR"))
    if (*Env) {
      Dir = Env;
      while (Dir.size() > 1 && Dir.back() == '/')
        Dir.pop_back();
    }
  std::ostringstream SS;
  SS << Dir << "/spl-native-" << getpid() << "-" << Counter++;
  return SS.str();
}

double NativeModule::compileTimeoutSeconds() {
  return envTimeoutSeconds("SPL_CC_TIMEOUT_MS", 60.0);
}

bool NativeModule::available() {
  return ccProbe().Available;
}

const std::string &NativeModule::compilerIdentity() {
  return ccProbe().Identity;
}

std::unique_ptr<NativeModule>
NativeModule::loadModule(const std::string &SoPath, const std::string &FnName,
                         bool OwnsSo, std::string *Error) {
  telemetry::StageTimer T(telemetry::PlanDlopenNs);
  void *Handle = nullptr;
  if (!fault::at("dlopen"))
    Handle = dlopen(SoPath.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (!Handle) {
    if (Error) {
      const char *DLErr = dlerror();
      *Error = std::string("dlopen failed: ") +
               (DLErr ? DLErr : fault::describe("dlopen").c_str());
    }
    if (OwnsSo)
      std::remove(SoPath.c_str());
    return nullptr;
  }
  void *Sym = fault::at("dlsym") ? nullptr : dlsym(Handle, FnName.c_str());
  if (!Sym) {
    if (Error)
      *Error = "symbol '" + FnName + "' not found in generated module";
    dlclose(Handle);
    if (OwnsSo)
      std::remove(SoPath.c_str());
    return nullptr;
  }

  auto M = std::unique_ptr<NativeModule>(new NativeModule());
  M->Handle = Handle;
  M->Fn = reinterpret_cast<KernelFn>(Sym);
  M->SoPath = SoPath;
  M->OwnsSo = OwnsSo;
  return M;
}

std::unique_ptr<NativeModule>
NativeModule::loadCached(const std::string &SoPath, const std::string &FnName,
                         std::string *Error) {
  return loadModule(SoPath, FnName, /*OwnsSo=*/false, Error);
}

std::unique_ptr<NativeModule>
NativeModule::compileFresh(const std::string &CSource,
                           const std::string &FnName, std::string *Error,
                           const std::string &ExtraFlags, bool *TimedOut,
                           const support::Deadline &Deadline) {
  std::string SoPath =
      compileToTemp(CSource, /*Shared=*/true, ExtraFlags,
                    telemetry::NativeCompiles, Error, TimedOut, Deadline);
  if (SoPath.empty())
    return nullptr;
  return loadModule(SoPath, FnName, /*OwnsSo=*/true, Error);
}

std::string NativeModule::compileExecutable(const std::string &CSource,
                                            const std::string &ExtraFlags,
                                            std::string *Error) {
  std::string Path;
  auto Build = [&] {
    Path = compileToTemp(CSource, /*Shared=*/false, ExtraFlags,
                         telemetry::NativeRunnerBuilds, Error, nullptr,
                         support::Deadline());
    return Path;
  };
  if (!KernelCache::enabled())
    return Build();
  // A cached build is copied out: the caller's copy outlives the cache.
  auto CopyOut = [&](const std::string &Hit) {
    std::optional<std::string> Bytes = support::readFile(Hit);
    Path = tempStem();
    if (Bytes && support::replaceFile(Path, *Bytes) &&
        ::chmod(Path.c_str(), 0755) == 0)
      return true;
    std::remove(Path.c_str());
    Path.clear();
    return false;
  };
  throughCache(KernelCache::key(CSource, "main", ExtraFlags), CopyOut, Build);
  return Path;
}

std::unique_ptr<NativeModule>
NativeModule::compile(const std::string &CSource, const std::string &FnName,
                      std::string *Error, const std::string &ExtraFlags,
                      bool *TimedOut, const support::Deadline &Deadline) {
  if (TimedOut)
    *TimedOut = false;
  if (!KernelCache::enabled())
    return compileFresh(CSource, FnName, Error, ExtraFlags, TimedOut,
                        Deadline);

  const std::string Key = KernelCache::key(CSource, FnName, ExtraFlags);
  std::unique_ptr<NativeModule> M;
  auto Load = [&](const std::string &Hit) {
    M = loadCached(Hit, FnName, Error);
    if (!M) // Checksum-valid but unloadable (e.g. an alien file of the
            // right bytes): drop the entry and recompile.
      KernelCache::remove(Key);
    return M != nullptr;
  };
  // The module keeps (and owns) its temp copy; the cache gets its own.
  // A failed insert just means the next process compiles cold again.
  auto Build = [&] {
    M = compileFresh(CSource, FnName, Error, ExtraFlags, TimedOut, Deadline);
    return M ? M->SoPath : std::string();
  };
  if (throughCache(Key, Load, Build))
    M->CacheKey = Key;
  return M;
}

void *NativeModule::symbol(const char *Name) const {
  return Handle ? dlsym(Handle, Name) : nullptr;
}

NativeModule::~NativeModule() {
  if (Handle)
    dlclose(Handle);
  if (OwnsSo && !SoPath.empty())
    std::remove(SoPath.c_str());
}
