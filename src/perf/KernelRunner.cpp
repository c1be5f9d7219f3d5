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

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <random>

#include <fcntl.h>
#include <unistd.h>

using namespace spl;
using namespace spl::perf;

namespace {

/// The trial runner: a libc-only C program that proves one kernel in its
/// own process. Arguments: the module's path, the kernel's symbol, the
/// input and output lengths in doubles, the tables (a KernelCache tables
/// artifact path, "@3" for one on fd 3, or "-" for none), and optionally
/// "crash" or "hang" (the trial-crash and trial-hang fault sites). It runs
/// the kernel once on data from a seeded 64-bit LCG in [-1, 1) and exits
/// 0, 2 on a non-finite output, or 3 with a message when it cannot set
/// the kernel up.
constexpr const char *TrialRunnerSource = R"(#include <dlfcn.h>
#include <fcntl.h>
#include <math.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

static int fail(const char *what, const char *detail) {
  fprintf(stderr, "%s: %s\n", what, detail ? detail : "?");
  return 3;
}

int main(int argc, char **argv) {
  if (argc < 6)
    return fail("usage", "runner so symbol in-len out-len tables [crash|hang]");
  void *h = dlopen(argv[1], RTLD_NOW | RTLD_LOCAL);
  if (!h)
    return fail("dlopen failed", dlerror());
  void (*fn)(double *, const double *) =
      (void (*)(double *, const double *))dlsym(h, argv[2]);
  if (!fn)
    return fail("symbol not found", argv[2]);
  const long in_len = atol(argv[3]), out_len = atol(argv[4]);
  if (strcmp(argv[5], "-") != 0) {
    int fd = strcmp(argv[5], "@3") == 0 ? 3 : open(argv[5], O_RDONLY);
    struct stat st;
    if (fd < 0 || fstat(fd, &st) != 0)
      return fail("cannot open tables", argv[5]);
    const size_t size = (size_t)st.st_size;
    const char *b = size >= 16 ? mmap(0, size, PROT_READ, MAP_PRIVATE, fd, 0)
                               : MAP_FAILED;
    uint64_t count = 0;
    if (b == MAP_FAILED || memcmp(b, "spltab01", 8) != 0)
      return fail("bad tables", argv[5]);
    memcpy(&count, b + 8, 8);
    if (count > size / 8)
      return fail("bad tables", argv[5]);
    const double **tabs = malloc((count + 1) * sizeof *tabs);
    size_t pos = 16;
    for (uint64_t t = 0; t != count; ++t) {
      uint64_t len = 0;
      if (size - pos < 8)
        return fail("bad tables", argv[5]);
      memcpy(&len, b + pos, 8);
      pos += 8;
      if (len > (size - pos) / 8)
        return fail("bad tables", argv[5]);
      tabs[t] = (const double *)(b + pos);
      pos += len * 8;
    }
    if (count) {
      char name[512];
      snprintf(name, sizeof name, "%s_set_tables", argv[2]);
      void (*set)(const double *const *) =
          (void (*)(const double *const *))dlsym(h, name);
      if (!set)
        return fail("symbol not found", name);
      set(tabs);
    }
  }
  double *x = malloc((size_t)(in_len + 1) * sizeof *x);
  double *y = calloc((size_t)out_len + 1, sizeof *y);
  uint64_t s = 17;
  for (long i = 0; i < in_len; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    x[i] = (double)(s >> 11) * 0x1p-52 - 1.0;
  }
  if (argc > 6 && strcmp(argv[6], "crash") == 0) {
    signal(SIGSEGV, SIG_DFL);
    raise(SIGSEGV);
  }
  if (argc > 6 && strcmp(argv[6], "hang") == 0)
    sleep(600);
  fn(y, x);
  for (long i = 0; i < out_len; ++i)
    if (!isfinite(y[i]))
      return 2;
  return 0;
}
)";

/// This process's copy of the trial runner: built (or copied out of the
/// kernel cache) on first use, and again should the copy vanish; removed
/// at exit. "" with \p Error filled when it cannot be built.
std::string trialRunner(std::string &Error) {
  static std::mutex M;
  static struct Copy {
    std::string Path;
    ~Copy() {
      if (!Path.empty())
        std::remove(Path.c_str());
    }
  } Runner;
  std::lock_guard<std::mutex> Lock(M);
  if (Runner.Path.empty() || ::access(Runner.Path.c_str(), X_OK) != 0)
    Runner.Path =
        NativeModule::compileExecutable(TrialRunnerSource, "-O2", &Error);
  return Runner.Path;
}

/// \p Tables in an unlinked, close-on-exec temp file for the runner's fd 3;
/// -1 when it cannot be written. The tables go out without a copy.
int tablesFd(const std::vector<std::vector<double>> &Tables) {
  const std::string Path = tempStem() + ".tables";
  int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
  if (Fd < 0)
    return -1;
  ::unlink(Path.c_str());
  KernelCache::writeTables(Tables, [&](const void *P, std::size_t N) {
    const char *Bytes = static_cast<const char *>(P);
    while (Fd >= 0 && N > 0) {
      const ssize_t W = ::write(Fd, Bytes, N);
      if (W < 0 && errno == EINTR)
        continue;
      if (W <= 0) {
        ::close(Fd);
        Fd = -1;
        return;
      }
      Bytes += W;
      N -= static_cast<std::size_t>(W);
    }
  });
  return Fd;
}

} // namespace

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

std::string CompiledKernel::compilerFlags(const KernelBuildOptions &BuildOpts) {
  std::string Flags = BuildOpts.ExtraFlags;
  if (BuildOpts.Variant == codegen::CodegenVariant::Vector) {
    std::string ISAFlags = codegen::isaCompilerFlags(codegen::detectISA());
    if (!ISAFlags.empty())
      Flags += " " + ISAFlags;
  }
  return Flags;
}

std::unique_ptr<CompiledKernel>
CompiledKernel::bind(std::unique_ptr<NativeModule> Mod,
                     const std::string &FnName,
                     std::vector<std::vector<double>> Tables,
                     KernelError *Err) {
  auto K = std::unique_ptr<CompiledKernel>(new CompiledKernel());
  K->Fn = Mod->fn();
  K->FnName = FnName;
  K->Tables = std::move(Tables);
  if (!K->Tables.empty()) {
    using SetFn = void (*)(const double *const *);
    std::string SetName = FnName + "_set_tables";
    auto Set = reinterpret_cast<SetFn>(Mod->symbol(SetName.c_str()));
    if (!Set) {
      if (Err)
        *Err = KernelError{KernelErrorKind::MissingSymbol,
                           "generated module lacks " + SetName};
      return nullptr;
    }
    std::vector<const double *> Ptrs;
    for (const auto &T : K->Tables)
      Ptrs.push_back(T.data());
    Set(Ptrs.data());
  }
  K->Mod = std::move(Mod);
  return K;
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
  codegen::CEmitOptions CO;
  CO.ExternalTables = true;
  CO.ThreadSafe = BuildOpts.ThreadSafe;
  if (Vector) {
    if (fault::at("vector-compile"))
      return Fail(KernelErrorKind::CompileFailed,
                  fault::describe("vector-compile"));
    CO.ISA = codegen::detectISA();
  }
  const int Lanes = codegen::laneCount(CO.ISA);
  auto Start = std::chrono::steady_clock::now();
  const std::string Code = codegen::emitC(Final, CO);
  if (Vector) {
    telemetry::CodegenVectorNs.record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - Start)
            .count()));
    telemetry::CodegenVectorKernels.add();
  }

  std::string CompileError;
  bool TimedOut = false;
  auto Mod = NativeModule::compile(Code, Final.SubName, &CompileError,
                                   compilerFlags(BuildOpts), &TimedOut,
                                   BuildOpts.Deadline);
  if (!Mod)
    return Fail(TimedOut ? KernelErrorKind::CompileTimeout
                         : KernelErrorKind::CompileFailed,
                CompileError);

  std::vector<std::vector<double>> Tables;
  for (const auto &T : Final.Tables) {
    std::vector<double> Flat(T.size());
    for (size_t I = 0; I != T.size(); ++I)
      Flat[I] = T[I].real();
    Tables.push_back(std::move(Flat));
  }
  auto K = bind(std::move(Mod), Final.SubName, std::move(Tables), Err);
  if (!K)
    return nullptr;
  K->Lanes = Lanes;
  K->Variant = BuildOpts.Variant;
  K->InLen = (Final.LoweredToReal ? Final.InSize * 2 : Final.InSize) * Lanes;
  K->OutLen =
      (Final.LoweredToReal ? Final.OutSize * 2 : Final.OutSize) * Lanes;
  return K;
}

std::unique_ptr<CompiledKernel>
CompiledKernel::load(KernelCache::PlanRecord Record, const std::string &FnName,
                     std::int64_t VectorLen, codegen::CodegenVariant Variant,
                     KernelError *Err) {
  if (Err)
    *Err = KernelError();
  const bool Vector = Variant == codegen::CodegenVariant::Vector;
  if (Vector && fault::at("vector-compile")) {
    if (Err)
      *Err = KernelError{KernelErrorKind::CompileFailed,
                         fault::describe("vector-compile")};
    return nullptr;
  }
  std::string LoadError;
  std::unique_ptr<CompiledKernel> K;
  if (auto Mod = NativeModule::loadCached(Record.SoPath, FnName, &LoadError))
    K = bind(std::move(Mod), FnName, std::move(Record.Tables), Err);
  else if (Err)
    *Err = KernelError{KernelErrorKind::CompileFailed, LoadError};
  if (!K) {
    // A checksum-valid artifact that does not load is as bad as a
    // corrupt one: drop it so the caller's full path rebuilds it.
    telemetry::KernelcacheCorruptEntries.add();
    KernelCache::remove(Record.SoKey);
    return nullptr;
  }
  K->Lanes = codegen::laneCount(Vector ? codegen::detectISA()
                                       : codegen::VectorISA::Scalar);
  K->Variant = Variant;
  K->InLen = K->OutLen = VectorLen * K->Lanes;
  K->TablesPath = std::move(Record.TablesPath);
  return K;
}

CompiledKernel::TrialResult
CompiledKernel::trial(double TimeoutSeconds) const {
  // Both sites are consulted on every trial, so their budgets count trials.
  const bool InjectCrash = fault::at("trial-crash");
  const bool InjectHang = fault::at("trial-hang");
  TrialResult T;
  std::string Error;
  const std::string Runner = trialRunner(Error);
  if (Runner.empty()) {
    T.Reason = "trial runner unavailable: " + Error;
    return T;
  }
  std::vector<std::string> Argv = {Runner, Mod->soPath(), FnName,
                                   std::to_string(InLen),
                                   std::to_string(OutLen), "-"};
  SubprocessOptions Opts;
  Opts.TimeoutSeconds = TimeoutSeconds;
  struct FdGuard {
    int Fd = -1;
    ~FdGuard() {
      if (Fd >= 0)
        ::close(Fd);
    }
  } TablesFd; // Closed on every path out of the trial.
  if (!Tables.empty() && !TablesPath.empty()) {
    Argv[5] = TablesPath; // A plan record's: mapped, never rewritten.
  } else if (!Tables.empty()) {
    Opts.Fd3 = TablesFd.Fd = tablesFd(Tables);
    if (Opts.Fd3 < 0) {
      T.Reason = "trial execution failed: cannot write its tables";
      return T;
    }
    Argv[5] = "@3";
  }
  if (InjectCrash)
    Argv.push_back("crash");
  else if (InjectHang)
    Argv.push_back("hang");

  SubprocessResult R = runSubprocess(Argv, Opts);
  if (R.ok()) {
    T.Ok = true;
    return T;
  }
  if (R.TimedOut)
    T.Reason = "trial execution timed out after " +
               std::to_string(TimeoutSeconds) +
               " s (see SPL_TRIAL_TIMEOUT_MS)";
  else if (R.Signal != 0)
    T.Reason = "trial execution died on signal " + std::to_string(R.Signal);
  else if (R.ExitCode == 2)
    T.Reason = "trial execution produced non-finite output";
  else
    T.Reason = "trial execution failed (" + R.describe() + ")" +
               (R.Output.empty()
                    ? ""
                    : ": " + R.Output.substr(0, R.Output.find('\n')));
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
