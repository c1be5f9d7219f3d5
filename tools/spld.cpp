//===- tools/spld.cpp - The SPL plan-serving daemon ----------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// spld: a long-running daemon serving plan/execute traffic over a
/// Unix-domain socket (see docs/SERVICE.md). One process owns the plan
/// registry, compiled kernels, and wisdom store for every connected client;
/// requests run on a worker pool behind admission control, and the
/// metric catalogue is scrapeable through the protocol's stats request.
///
///   spld --socket /tmp/spld.sock [--workers 8] [--max-inflight 64]
///     --socket <path>        Unix socket to listen on (required)
///     --workers <n>          request worker threads that plan and execute
///                            (0 = one per core, the default; n < 0 is a
///                            usage error); a batch fans out from its
///                            worker to the process compute pool
///     --max-inflight <n>     server-wide admitted-request cap (default 64)
///     --per-client <n>       per-connection in-flight quota (default 4)
///     --max-frame-mb <n>     largest request/response frame (default 64)
///     --max-size <n>         largest accepted transform size (default 65536)
///     --exec-threads <n>     cap on a request's batch width: parallelFor
///                            runners, the request worker included
///                            (default 4)
///     --default-deadline-ms <n>  deadline applied to requests that carry
///                            none of their own (0 = unbounded, default);
///                            queue time counts, so aged-out requests are
///                            answered DEADLINE_EXCEEDED unexecuted
///     --breaker-threshold <k>  consecutive native-compile failures before
///                            the compile circuit breaker opens and plans
///                            degrade straight to the VM tier (default 5;
///                            0 disables the breaker)
///     --breaker-cooldown-ms <n>  how long an open breaker stays open
///                            before admitting a probe compile (default
///                            5000)
///     --codegen auto|scalar|vector   server-wide codegen policy: auto
///                            honors each request's mode, scalar/vector
///                            override every spec. A request's auto plans
///                            scalar, unless --eval native times the
///                            winner's two kernels (docs/VECTORIZATION.md)
///     --eval opcount|vmtime|native   search cost model (default opcount)
///     --search-threads <t>   candidate-evaluation worker threads
///     --wisdom <file>        plan cache location ($SPL_WISDOM/~/.spl_wisdom)
///     --no-wisdom            neither read nor write the plan cache
///     --kernel-cache <dir>   persistent compiled-kernel cache: a restarted
///                            daemon re-maps previously compiled kernels
///                            with zero compiler forks (docs/KERNEL_CACHE.md)
///     --no-kernel-cache      never read or write the kernel cache
///     --version              print version, build date and compiler
///
/// The daemon prints "spld: listening on <path>" once ready (scripts wait
/// for that line), then serves until SIGINT/SIGTERM or a client SHUTDOWN
/// request; either way it drains in-flight work and saves wisdom before
/// exiting. Exit codes follow tools/ExitCodes.h.
///
//===----------------------------------------------------------------------===//

#include "ExitCodes.h"
#include "Version.h"

#include "service/Server.h"
#include "telemetry/Metrics.h"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

using namespace spl;

// The wire protocol's shared failure stages must stay aligned with the CLI
// exit codes they are documented to mirror.
static_assert(static_cast<int>(service::Status::BadRequest) ==
              tools::ExitUsage);
static_assert(static_cast<int>(service::Status::BadSpec) == tools::ExitParse);
static_assert(static_cast<int>(service::Status::PlanFailed) ==
              tools::ExitCompile);
static_assert(static_cast<int>(service::Status::ExecFailed) ==
              tools::ExitExec);
// DeadlineExceeded is service-only (wire value 10) but owns a CLI stage of
// its own; statusToExitCode is the one place that mapping lives.
static_assert(static_cast<int>(service::Status::DeadlineExceeded) == 10);

namespace {

volatile std::sig_atomic_t GotSignal = 0;

void onSignal(int) { GotSignal = 1; }

void printUsage() {
  std::fprintf(
      stderr,
      "usage: spld --socket path [--workers n] [--max-inflight n]\n"
      "            [--per-client n] [--max-frame-mb n] [--max-size n]\n"
      "            [--exec-threads n] [--codegen auto|scalar|vector]\n"
      "            [--default-deadline-ms n] [--breaker-threshold k]\n"
      "            [--breaker-cooldown-ms n]\n"
      "            [--eval opcount|vmtime|native]\n"
      "            [--search-threads t] [--wisdom file] [--no-wisdom]\n"
      "            [--kernel-cache dir] [--no-kernel-cache] [--version]\n"
      "--workers takes n >= 0; 0 (the default) is one per core\n");
}

} // namespace

int main(int Argc, char **Argv) {
  service::ServerOptions Opts;
  // The daemon is the deployment that needs overload protection on by
  // default: one wedged compiler must not serially time out for every
  // tenant. Library users (and the CLI tools) keep the breaker off unless
  // asked.
  Opts.BreakerThreshold = 5;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "spld: error: %s needs a value\n", Flag);
        std::exit(tools::ExitUsage);
      }
      return Argv[++I];
    };
    if (Arg == "--socket") {
      Opts.SocketPath = Next("--socket");
    } else if (Arg == "--workers") {
      Opts.Workers = std::atoi(Next("--workers"));
      if (Opts.Workers < 0) {
        std::fprintf(stderr, "spld: error: --workers must be >= 0\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--max-inflight") {
      Opts.MaxInflight = std::atoi(Next("--max-inflight"));
    } else if (Arg == "--per-client") {
      Opts.PerClientInflight = std::atoi(Next("--per-client"));
    } else if (Arg == "--max-frame-mb") {
      long MB = std::atol(Next("--max-frame-mb"));
      if (MB < 1 || MB > 1024) {
        std::fprintf(stderr,
                     "spld: error: --max-frame-mb must be in [1,1024]\n");
        return tools::ExitUsage;
      }
      Opts.MaxFrameBytes = static_cast<std::uint32_t>(MB) << 20;
    } else if (Arg == "--max-size") {
      Opts.MaxTransformSize = std::atoll(Next("--max-size"));
    } else if (Arg == "--exec-threads") {
      Opts.MaxExecThreads = std::atoi(Next("--exec-threads"));
    } else if (Arg == "--default-deadline-ms") {
      Opts.DefaultDeadlineMs = std::atoll(Next("--default-deadline-ms"));
      if (Opts.DefaultDeadlineMs < 0) {
        std::fprintf(stderr,
                     "spld: error: --default-deadline-ms must be >= 0\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--breaker-threshold") {
      Opts.BreakerThreshold = std::atoi(Next("--breaker-threshold"));
      if (Opts.BreakerThreshold < 0) {
        std::fprintf(stderr,
                     "spld: error: --breaker-threshold must be >= 0\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--breaker-cooldown-ms") {
      Opts.BreakerCooldownMs = std::atoll(Next("--breaker-cooldown-ms"));
      if (Opts.BreakerCooldownMs < 1) {
        std::fprintf(stderr,
                     "spld: error: --breaker-cooldown-ms must be >= 1\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--codegen") {
      std::string Name = Next("--codegen");
      if (!runtime::parseCodegenMode(Name, Opts.Codegen)) {
        std::fprintf(stderr, "spld: error: unknown codegen mode '%s'\n",
                     Name.c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--eval") {
      Opts.Planner.Evaluator = Next("--eval");
      if (Opts.Planner.Evaluator != "opcount" &&
          Opts.Planner.Evaluator != "vmtime" &&
          Opts.Planner.Evaluator != "native") {
        std::fprintf(stderr, "spld: error: unknown cost model '%s'\n",
                     Opts.Planner.Evaluator.c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--search-threads") {
      Opts.Planner.SearchThreads = std::atoi(Next("--search-threads"));
    } else if (Arg == "--wisdom") {
      Opts.Planner.WisdomPath = Next("--wisdom");
    } else if (Arg == "--no-wisdom") {
      Opts.Planner.UseWisdom = false;
    } else if (Arg == "--kernel-cache") {
      Opts.Planner.KernelCacheDir = Next("--kernel-cache");
    } else if (Arg == "--no-kernel-cache") {
      Opts.Planner.DisableKernelCache = true;
    } else if (Arg == "--version") {
      std::printf("%s\n", tools::versionString("spld").c_str());
      return tools::ExitOK;
    } else if (Arg == "-h" || Arg == "--help") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "spld: error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return tools::ExitUsage;
    }
  }

  if (Opts.SocketPath.empty()) {
    std::fprintf(stderr, "spld: error: --socket is required\n");
    printUsage();
    return tools::ExitUsage;
  }
  if (Opts.MaxInflight < 1 || Opts.PerClientInflight < 1 ||
      Opts.MaxExecThreads < 1 || Opts.MaxTransformSize < 2 ||
      Opts.Planner.SearchThreads < 1) {
    std::fprintf(stderr, "spld: error: limits must be >= 1 (--max-size >= "
                         "2)\n");
    return tools::ExitUsage;
  }

  // A serving daemon is always observable: the stats request scrapes the
  // registry, so counters must actually count.
  telemetry::setMetricsEnabled(true);

  service::Server Server(Opts);
  if (!Server.start()) {
    std::fputs(Server.diagnostics().dump().c_str(), stderr);
    return tools::ExitExec;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("spld: listening on %s\n", Opts.SocketPath.c_str());
  std::fflush(stdout);

  // Serve until a signal or a client shutdown request. Polling (rather
  // than sigwait) keeps both wake-up sources on one simple loop.
  while (!GotSignal && !Server.shutdownRequested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  std::printf("spld: draining and saving wisdom\n");
  std::fflush(stdout);
  Server.stop();
  std::fputs(Server.diagnostics().dump().c_str(), stderr);
  return tools::ExitOK;
}
