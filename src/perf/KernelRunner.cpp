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
#include <cstring>
#include <mutex>
#include <random>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace spl;
using namespace spl::perf;

namespace {

/// The trial runner: a libc-only C program that serves trials over the
/// SOCK_SEQPACKET channel on its fd 3 until the channel closes. A request
/// is one message of NUL-terminated fields: the module's path, the
/// kernel's symbol, the input and output lengths in doubles, and "",
/// "crash" or "hang" (the trial-crash and trial-hang fault sites); the
/// kernel's tables blob rides along as an fd (SCM_RIGHTS). For
/// each request the runner forks a fresh child, which dlopens the kernel,
/// maps the tables, runs the kernel once on data from a seeded 64-bit LCG
/// in [-1, 1) and exits 0, 2 on a non-finite output, or 3 with a message
/// when it cannot set the kernel up. The runner itself never loads a
/// kernel. Its reply is one message: the child's wait status (an int32,
/// -1 when no child could start) and the start of the child's output. A
/// channel that closes mid-trial (the owner died) makes the
/// runner kill and reap its child and exit.
constexpr const char *TrialRunnerSource = R"(#include <dlfcn.h>
#include <errno.h>
#include <fcntl.h>
#include <math.h>
#include <poll.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

enum { CHANNEL = 3 };

static int fail(const char *what, const char *detail) {
  fprintf(stderr, "%s: %s\n", what, detail ? detail : "?");
  return 3;
}

/* The trial child's work: prove the kernel once. */
static int prove(const char *so, const char *sym, long in_len, long out_len,
                 int tables, const char *mode) {
  void *h = dlopen(so, RTLD_NOW | RTLD_LOCAL);
  if (!h)
    return fail("dlopen failed", dlerror());
  void (*fn)(double *, const double *) =
      (void (*)(double *, const double *))dlsym(h, sym);
  if (!fn)
    return fail("symbol not found", sym);
  if (tables >= 0) {
    struct stat st;
    if (fstat(tables, &st) != 0)
      return fail("cannot read tables", sym);
    const size_t size = (size_t)st.st_size;
    const char *b = size >= 16
                        ? mmap(0, size, PROT_READ, MAP_PRIVATE, tables, 0)
                        : MAP_FAILED;
    uint64_t count = 0;
    if (b == MAP_FAILED || memcmp(b, "spltab01", 8) != 0)
      return fail("bad tables", sym);
    memcpy(&count, b + 8, 8);
    if (count > size / 8)
      return fail("bad tables", sym);
    const double **tabs = malloc((count + 1) * sizeof *tabs);
    size_t pos = 16;
    for (uint64_t t = 0; t != count; ++t) {
      uint64_t len = 0;
      if (size - pos < 8)
        return fail("bad tables", sym);
      memcpy(&len, b + pos, 8);
      pos += 8;
      if (len > (size - pos) / 8)
        return fail("bad tables", sym);
      tabs[t] = (const double *)(b + pos);
      pos += len * 8;
    }
    if (count) {
      char name[512];
      snprintf(name, sizeof name, "%s_set_tables", sym);
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
  if (strcmp(mode, "crash") == 0) {
    signal(SIGSEGV, SIG_DFL);
    raise(SIGSEGV);
  }
  if (strcmp(mode, "hang") == 0)
    sleep(600);
  fn(y, x);
  for (long i = 0; i < out_len; ++i)
    if (!isfinite(y[i]))
      return 2;
  return 0;
}

static void reply(int32_t status, const char *text, size_t len) {
  char out[4 + 512];
  if (len > sizeof out - 4)
    len = sizeof out - 4;
  memcpy(out, &status, 4);
  memcpy(out + 4, text, len);
  send(CHANNEL, out, 4 + len, 0);
}

/* Runs one trial in a fresh child and replies; exits when the channel
   closes before the child is done. */
static void trial(char **f, int tables) {
  int p[2] = {-1, -1};
  const pid_t pid = pipe(p) == 0 ? fork() : -1;
  if (pid == 0) {
    close(CHANNEL);
    close(p[0]);
    dup2(p[1], 1);
    dup2(p[1], 2);
    close(p[1]);
    signal(SIGPIPE, SIG_DFL);
    _exit(prove(f[0], f[1], atol(f[2]), atol(f[3]), tables, f[4]));
  }
  close(p[1]);
  if (tables >= 0)
    close(tables);
  if (pid < 0) {
    close(p[0]);
    reply(-1, "no pipe or fork", 15);
    return;
  }
  char text[512];
  size_t len = 0;
  for (;;) {
    struct pollfd fds[2] = {{CHANNEL, POLLIN, 0}, {p[0], POLLIN, 0}};
    if (poll(fds, 2, -1) < 0)
      continue;
    if (fds[0].revents) {
      kill(pid, SIGKILL);
      waitpid(pid, 0, 0);
      exit(0);
    }
    if (fds[1].revents) {
      char buf[512];
      const ssize_t n = read(p[0], buf, sizeof buf);
      if (n < 0 && errno == EINTR)
        continue;
      if (n <= 0)
        break; /* EOF: the child is exiting. */
      const size_t keep = (size_t)n < sizeof text - len ? (size_t)n
                                                        : sizeof text - len;
      memcpy(text + len, buf, keep);
      len += keep;
    }
  }
  close(p[0]);
  int st = 0;
  while (waitpid(pid, &st, 0) < 0 && errno == EINTR) {
  }
  reply(st, text, len);
}

int main(void) {
  signal(SIGPIPE, SIG_IGN);
  for (;;) {
    char req[8192];
    union {
      struct cmsghdr h;
      char b[CMSG_SPACE(sizeof(int))];
    } ctl;
    struct iovec iov = {req, sizeof req - 1};
    struct msghdr mh;
    memset(&mh, 0, sizeof mh);
    mh.msg_iov = &iov;
    mh.msg_iovlen = 1;
    mh.msg_control = ctl.b;
    mh.msg_controllen = sizeof ctl.b;
    const ssize_t n = recvmsg(CHANNEL, &mh, 0);
    if (n < 0 && errno == EINTR)
      continue;
    if (n <= 0)
      return 0; /* The owner closed the channel. */
    int tables = -1;
    struct cmsghdr *c = CMSG_FIRSTHDR(&mh);
    if (c && c->cmsg_level == SOL_SOCKET && c->cmsg_type == SCM_RIGHTS)
      memcpy(&tables, CMSG_DATA(c), sizeof tables);
    req[n] = 0;
    char *f[5];
    size_t pos = 0;
    int k = 0;
    for (; k < 5 && pos < (size_t)n; ++k) {
      f[k] = req + pos;
      pos += strlen(req + pos) + 1;
    }
    if (k < 5 || (mh.msg_flags & (MSG_TRUNC | MSG_CTRUNC))) {
      if (tables >= 0)
        close(tables);
      reply(-1, "bad request", 11);
      continue;
    }
    trial(f, tables);
  }
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

/// The tables blob \p Tables in an unlinked, close-on-exec temp file for a
/// trial request; -1 when it cannot be written.
UniqueFd tablesFd(const std::string &Tables) {
  const std::string Path = tempStem() + ".tables";
  UniqueFd Fd(
      ::open(Path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600));
  if (Fd.get() < 0)
    return Fd;
  ::unlink(Path.c_str());
  for (std::size_t Done = 0; Done != Tables.size();) {
    const ssize_t W =
        ::write(Fd.get(), Tables.data() + Done, Tables.size() - Done);
    if (W > 0)
      Done += static_cast<std::size_t>(W);
    else if (W == 0 || errno != EINTR)
      return UniqueFd();
  }
  return Fd;
}

/// One resident trial runner: its pid and this side of its channel.
struct Runner {
  pid_t Pid = -1;
  int Fd = -1;
};

/// What one trial request came to.
struct Exchange {
  enum { Replied, TimedOut, Failed } Kind = Failed;
  int Status = 0;   ///< The trial child's wait status, -1 when none ran.
  std::string Text; ///< The child's output, or why no reply came.
};

/// The process's trial runners. Each serves one trial at a time; idle ones
/// wait in a free list, and a trial that finds none starts one. A runner
/// whose trial timed out or whose channel broke is retired, never reused.
class RunnerPool {
public:
  /// Runs \p Request (with \p TablesFd passed along) on a runner, waiting
  /// at most \p TimeoutSeconds (0: no limit) for the reply.
  Exchange run(const std::string &Request, int TablesFd,
               double TimeoutSeconds) {
    using Clock = std::chrono::steady_clock;
    const Clock::time_point Deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(TimeoutSeconds));
    Exchange X;
    // A runner that died while idle shows up as a broken channel before
    // any trial ran in it, so the request is retried once on a new runner.
    for (int Attempt = 0; Attempt != 2; ++Attempt) {
      Runner R;
      if (!acquire(R, /*Fresh=*/Attempt != 0, X.Text))
        return X;
      if (!send(R.Fd, Request, TablesFd)) {
        retire(R);
        continue;
      }
      for (;;) {
        long Ms = -1;
        if (TimeoutSeconds > 0) {
          Ms = static_cast<long>(std::chrono::ceil<std::chrono::milliseconds>(
                                     Deadline - Clock::now())
                                     .count());
          if (Ms <= 0) {
            retire(R);
            X.Kind = Exchange::TimedOut;
            return X;
          }
        }
        struct pollfd PFD = {R.Fd, POLLIN, 0};
        const int PR = ::poll(&PFD, 1, static_cast<int>(Ms));
        if (PR == 0 || (PR < 0 && errno == EINTR))
          continue;
        char Buf[1024];
        ssize_t N = PR > 0 ? ::recv(R.Fd, Buf, sizeof Buf, 0) : -1;
        if (N < 0 && errno == EINTR)
          continue;
        if (N < 4)
          break; // The channel broke before the reply.
        std::int32_t Status;
        std::memcpy(&Status, Buf, 4);
        X = {Exchange::Replied, Status, std::string(Buf + 4, Buf + N)};
        release(R);
        return X;
      }
      retire(R);
    }
    X.Text = "trial execution failed: the trial runner died before it replied";
    return X;
  }

  /// Retires every idle runner.
  void closeIdle() {
    std::vector<Runner> Closing;
    {
      std::lock_guard<std::mutex> Lock(M);
      Closing.swap(Idle);
    }
    for (const Runner &R : Closing)
      retire(R);
  }

private:
  /// An idle runner, or (always when \p Fresh) a newly started one.
  bool acquire(Runner &R, bool Fresh, std::string &Error) {
    if (!Fresh) {
      std::lock_guard<std::mutex> Lock(M);
      if (!Idle.empty()) {
        R = Idle.back();
        Idle.pop_back();
        return true;
      }
    }
    const std::string Path = trialRunner(Error);
    if (Path.empty()) {
      Error = "trial runner unavailable: " + Error;
      return false;
    }
    int Sv[2];
    if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, Sv) != 0) {
      Error = "trial runner unavailable: no channel: " +
              std::string(std::strerror(errno));
      return false;
    }
    R.Pid = spawnWithChannel({Path}, Sv[1]);
    ::close(Sv[1]);
    if (R.Pid < 0) {
      ::close(Sv[0]);
      Error = "trial runner unavailable: it could not be started";
      return false;
    }
    R.Fd = Sv[0];
    telemetry::NativeRunnerStarts.add();
    return true;
  }

  void release(const Runner &R) {
    std::lock_guard<std::mutex> Lock(M);
    Idle.push_back(R);
  }

  /// Kills the runner with its process group, which holds any trial in
  /// flight, and reaps it; the killed trial child is an orphan the system
  /// reaps.
  static void retire(const Runner &R) {
    ::kill(-R.Pid, SIGKILL);
    ::close(R.Fd);
    while (::waitpid(R.Pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }

  static bool send(int Fd, const std::string &Request, int TablesFd) {
    struct iovec Iov = {const_cast<char *>(Request.data()), Request.size()};
    struct msghdr Msg = {};
    Msg.msg_iov = &Iov;
    Msg.msg_iovlen = 1;
    union {
      struct cmsghdr Header;
      char Bytes[CMSG_SPACE(sizeof(int))];
    } Control = {};
    Msg.msg_control = Control.Bytes;
    Msg.msg_controllen = sizeof Control.Bytes;
    struct cmsghdr *C = CMSG_FIRSTHDR(&Msg);
    C->cmsg_level = SOL_SOCKET;
    C->cmsg_type = SCM_RIGHTS;
    C->cmsg_len = CMSG_LEN(sizeof(int));
    std::memcpy(CMSG_DATA(C), &TablesFd, sizeof(int));
    ssize_t N;
    do
      N = ::sendmsg(Fd, &Msg, MSG_NOSIGNAL);
    while (N < 0 && errno == EINTR);
    return N == static_cast<ssize_t>(Request.size());
  }

  std::mutex M;
  std::vector<Runner> Idle;
};

/// The pool outlives every static destructor (a trial on another thread
/// may still reach it); its idle runners are retired when the process
/// exits normally, and any runner sees EOF when the process dies.
RunnerPool &runnerPool() {
  static RunnerPool *Pool = new RunnerPool;
  return *Pool;
}
const struct RunnerCloser {
  ~RunnerCloser() { runnerPool().closeIdle(); }
} CloseRunnersAtExit;

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
                     const std::string &FnName, std::string Tables,
                     KernelError *Err) {
  auto K = std::unique_ptr<CompiledKernel>(new CompiledKernel());
  K->Fn = Mod->fn();
  K->FnName = FnName;
  K->Tables = std::move(Tables);
  // Pointers into the kernel's own blob, which lives as long as it does.
  const std::optional<std::vector<const double *>> Ptrs =
      KernelCache::tablePointers(K->Tables);
  if (!Ptrs) {
    if (Err)
      *Err = KernelError{KernelErrorKind::CompileFailed, "malformed tables"};
    return nullptr;
  }
  if (!Ptrs->empty()) {
    using SetFn = void (*)(const double *const *);
    std::string SetName = FnName + "_set_tables";
    auto Set = reinterpret_cast<SetFn>(Mod->symbol(SetName.c_str()));
    if (!Set) {
      if (Err)
        *Err = KernelError{KernelErrorKind::MissingSymbol,
                           "generated module lacks " + SetName};
      return nullptr;
    }
    Set(Ptrs->data());
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

  auto K = bind(std::move(Mod), Final.SubName,
                KernelCache::tablesBlob(Final.Tables), Err);
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
  K->TablesFd = std::move(Record.TablesFd);
  return K;
}

CompiledKernel::TrialResult
CompiledKernel::trial(double TimeoutSeconds) {
  // Both sites are consulted on every trial, so their budgets count trials.
  const bool InjectCrash = fault::at("trial-crash");
  const bool InjectHang = fault::at("trial-hang");
  TrialResult T;
  // A plan record's descriptor goes out as its probe verified it, once; a
  // fresh kernel's blob goes out in an unlinked temp file. Either is
  // closed on every path out of the trial.
  UniqueFd Fd = std::move(TablesFd);
  if (Fd.get() < 0)
    Fd = tablesFd(Tables);
  if (Fd.get() < 0) {
    T.Reason = "trial execution failed: cannot write its tables";
    return T;
  }
  std::string Request;
  for (const std::string &Field :
       {Mod->soPath(), FnName, std::to_string(InLen), std::to_string(OutLen),
        std::string(InjectCrash ? "crash" : InjectHang ? "hang" : "")})
    Request.append(Field).push_back('\0');

  const Exchange X = runnerPool().run(Request, Fd.get(), TimeoutSeconds);
  if (X.Kind == Exchange::TimedOut) {
    T.Reason = "trial execution timed out after " +
               std::to_string(TimeoutSeconds) +
               " s (see SPL_TRIAL_TIMEOUT_MS)";
  } else if (X.Kind == Exchange::Failed) {
    T.Reason = X.Text;
  } else if (X.Status < 0) {
    T.Reason = "trial execution failed (could not start it): " + X.Text;
  } else if (WIFSIGNALED(X.Status)) {
    T.Reason =
        "trial execution died on signal " + std::to_string(WTERMSIG(X.Status));
  } else if (WEXITSTATUS(X.Status) == 0) {
    T.Ok = true;
  } else if (WEXITSTATUS(X.Status) == 2) {
    T.Reason = "trial execution produced non-finite output";
  } else {
    T.Reason = "trial execution failed (exit " +
               std::to_string(WEXITSTATUS(X.Status)) + ")" +
               (X.Text.empty() ? ""
                               : ": " + X.Text.substr(0, X.Text.find('\n')));
  }
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
