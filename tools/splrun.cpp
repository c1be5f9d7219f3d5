//===- tools/splrun.cpp - The SPL runtime command-line driver ------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// splrun: plan a transform with the runtime layer and execute it, FFTW
/// benchmark style — one planning pass, then a (possibly multi-threaded)
/// batch of executions with timing. The --verify mode cross-checks the
/// native backend against the VM and 1-thread against N-thread batches.
///
///   splrun --transform fft --size 1024 --batch 4096 --threads 8 --verify
///     --transform <t>       transform kind from the registry: fft, wht,
///                           rdft, dct2, dct3, dct4 (default fft;
///                           docs/WORKLOADS.md)
///     --size <n>            transform size (required unless --shape)
///     --shape <n1xn2[x..]>  N-D row-column shape, e.g. 32x32 (the plan
///                           transforms the row-major flattening)
///     --batch <b>           vectors per batch (default 1)
///     --threads <t>         batch worker threads (default 1)
///     --howmany <m>         strided mode: batch count in the
///                           FFTW-advanced layout (with --stride/--dist)
///     --stride <s>          strided mode: doubles between consecutive
///                           elements of one logical vector (default 1)
///     --dist <d>            strided mode: doubles between vector starts
///                           (default 0 = densely packed given the stride)
///     --deadline-ms <n>     end-to-end budget covering planning plus the
///                           timed batch (0 = unbounded, the default);
///                           exit code 6 when it expires first. With
///                           --connect the remaining budget rides each
///                           request as the wire DeadlineMs field
///     --connect <socket>    serve the request through a running spld
///                           daemon instead of planning in-process
///     --shutdown            (with --connect) ask the daemon to drain and
///                           exit after the other requests
///     --backend auto|native|vm|oracle   execution substrate (default auto)
///     --codegen auto|scalar|vector      native kernel variant (default auto:
///                           scalar, except that --eval native times the
///                           winner's scalar and vector kernels and keeps
///                           the faster; docs/VECTORIZATION.md)
///     --unroll <n>          -B unroll threshold (default 16)
///     --leaf <n>            largest straight-line sub-transform (default 16)
///     --eval opcount|vmtime|native   search cost model (default opcount)
///     --search-threads <t>  candidate-evaluation worker threads
///     --wisdom <file>       plan cache location ($SPL_WISDOM/~/.spl_wisdom)
///     --no-wisdom           neither read nor write the plan cache
///     --kernel-cache <dir>  persistent compiled-kernel cache
///                           ($SPL_KERNEL_CACHE, docs/KERNEL_CACHE.md)
///     --no-kernel-cache     never read or write the kernel cache
///     --verify              cross-check backends, a dense oracle, and
///                           thread counts
///     --stats               plan, wisdom and registry details on stderr
///     --stats-json <file>   dump the telemetry metric catalogue as JSON
///     --trace-json <file>   dump pipeline spans as chrome://tracing JSON
///     --version             print version, build date and compiler
///
/// Exit codes (tools/ExitCodes.h): 0 ok, 2 usage, 3 spec rejected,
/// 4 planning/search failed, 5 verification failed, 6 deadline exceeded.
///
//===----------------------------------------------------------------------===//

#include "ExitCodes.h"
#include "Version.h"

#include "ir/Formula.h"
#include "runtime/AlignedBuffer.h"
#include "runtime/PlanRegistry.h"
#include "runtime/Planner.h"
#include "service/Client.h"
#include "support/Deadline.h"
#include "support/Timer.h"
#include "telemetry/Trace.h"
#include "transforms/Registry.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <string>
#include <vector>

using namespace spl;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: splrun --size n|--shape n1xn2 [--transform t] [--batch b] "
      "[--threads t]\n"
      "              [--howmany m --stride s [--dist d]]\n"
      "              [--deadline-ms n] [--backend auto|native|vm|oracle]\n"
      "              [--codegen auto|scalar|vector] [--unroll n] [--leaf n]\n"
      "              [--eval opcount|vmtime|native] [--search-threads t]\n"
      "              [--wisdom file] [--no-wisdom] [--kernel-cache dir]\n"
      "              [--no-kernel-cache] [--verify] [--stats]\n"
      "              [--stats-json file] [--trace-json file] [--version]\n"
      "              [--connect socket [--shutdown]]\n");
}

/// Writes \p Content to \p Path; a one-line error on failure.
bool writeFileOrComplain(const std::string &Path, const std::string &Content,
                         const char *What) {
  std::ofstream Out(Path);
  if (Out)
    Out << Content;
  if (!Out) {
    std::fprintf(stderr, "splrun: error: cannot write %s to '%s'\n", What,
                 Path.c_str());
    return false;
  }
  return true;
}

/// Deterministic random batch input.
void fillRandom(double *X, std::int64_t Len, unsigned Seed) {
  std::mt19937 Gen(Seed);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  for (std::int64_t I = 0; I != Len; ++I)
    X[I] = Dist(Gen);
}

double maxAbsDiff(const double *A, const double *B, std::int64_t Len) {
  double M = 0;
  for (std::int64_t I = 0; I != Len; ++I)
    M = std::max(M, std::fabs(A[I] - B[I]));
  return M;
}

/// Parses "32x32" / "8x4x2" into dims; false on anything malformed.
bool parseShape(const char *Text, std::vector<std::int64_t> &Out) {
  Out.clear();
  const char *P = Text;
  while (*P) {
    char *End = nullptr;
    long long V = std::strtoll(P, &End, 10);
    if (End == P || V < 1)
      return false;
    Out.push_back(V);
    P = End;
    if (*P == 'x' || *P == 'X') {
      ++P;
      if (!*P)
        return false;
    } else if (*P) {
      return false;
    }
  }
  return !Out.empty();
}

/// Reports a daemon-side failure and maps its typed status onto the
/// documented CLI exit stage.
int clientFail(const service::Client &C, const char *What) {
  std::fprintf(stderr, "splrun: error: %s: %s (%s)\n", What,
               C.lastError().c_str(), service::statusName(C.lastStatus()));
  return service::statusToExitCode(C.lastStatus());
}

/// --connect mode: the same plan/execute/verify flow, but served by a
/// running spld daemon. Verification cross-checks the daemon's numbers
/// against a locally planned VM-backend plan (deterministic, no compiler
/// needed) and asserts resend determinism.
int runConnected(const std::string &Socket, const runtime::PlanSpec &Spec,
                 runtime::PlannerOptions POpts, std::int64_t Batch,
                 int Threads, std::int64_t DeadlineMs, bool Verify, bool Stats,
                 const std::string &StatsJsonPath, bool Shutdown) {
  service::Client Client;
  // The deadline clock starts before connect(): a daemon slow to accept is
  // spending the caller's budget too.
  Client.setDeadline(support::Deadline::afterMs(DeadlineMs));
  if (!Client.connect(Socket))
    return clientFail(Client, "cannot connect");

  if (Spec.Size != 0 || !Spec.Shape.empty()) {
    Timer PlanWall;
    auto PR = Client.planRetryBusy(Spec);
    if (!PR)
      return clientFail(Client, "plan request failed");
    std::printf("plan: %s: %s via spld%s%s\n", PR->Key.c_str(),
                PR->Backend.c_str(), PR->Fallback ? ", fallback: " : "",
                PR->Fallback ? PR->FallbackReason.c_str() : "");
    std::printf("planning took %.3f s (daemon round trip)\n",
                PlanWall.seconds());

    const std::int64_t Len = PR->VectorLen;
    runtime::AlignedBuffer X(static_cast<size_t>(Batch * Len));
    runtime::AlignedBuffer Y(static_cast<size_t>(Batch * Len));
    fillRandom(X.data(), Batch * Len, 7);

    Timer BatchWall;
    if (!Client.executeRetryBusy(Spec, Y.data(), X.data(), Batch, Len,
                                 Threads))
      return clientFail(Client, "execute request failed");
    double BatchSeconds = BatchWall.seconds();
    std::printf("batch %lld via spld: %.3f s (%.1f kvec/s)\n",
                static_cast<long long>(Batch), BatchSeconds,
                1e-3 * static_cast<double>(Batch) / BatchSeconds);

    int Failures = 0;
    if (Verify) {
      // Local reference: a VM-backend plan of the same spec. Deterministic
      // search (opcount) plus the interpreted substrate means the daemon's
      // answers must agree to rounding regardless of its resident tier.
      Diagnostics Diags;
      runtime::PlannerOptions LocalOpts = POpts;
      LocalOpts.UseWisdom = false; // Never race the daemon's wisdom file.
      runtime::Planner Local(Diags, LocalOpts);
      runtime::PlanSpec VMSpec = Spec;
      VMSpec.Want = runtime::Backend::VM;
      auto Ref = Local.plan(VMSpec);
      if (!Ref) {
        std::fputs(Diags.dump().c_str(), stderr);
        return tools::ExitCompile;
      }
      std::int64_t NCheck = std::min<std::int64_t>(Batch, 64);
      runtime::AlignedBuffer YRef(static_cast<size_t>(NCheck * Len));
      Ref->executeBatch(YRef.data(), X.data(), NCheck, 1);
      double Delta = maxAbsDiff(Y.data(), YRef.data(), NCheck * Len);
      bool OK = Delta <= 1e-10;
      std::printf("verify: spld vs local vm on %lld vectors: max |delta| = "
                  "%.3g (tol 1e-10): %s\n",
                  static_cast<long long>(NCheck), Delta, OK ? "OK" : "FAIL");
      Failures += !OK;

      // Determinism: the daemon must answer an identical request with
      // bit-identical output.
      runtime::AlignedBuffer Y2(static_cast<size_t>(Batch * Len));
      if (!Client.executeRetryBusy(Spec, Y2.data(), X.data(), Batch, Len,
                                   Threads))
        return clientFail(Client, "execute request failed");
      bool Identical =
          std::memcmp(Y.data(), Y2.data(),
                      static_cast<size_t>(Batch * Len) * sizeof(double)) == 0;
      std::printf("verify: repeated spld batch of %lld: %s\n",
                  static_cast<long long>(Batch),
                  Identical ? "bit-identical OK" : "MISMATCH");
      Failures += !Identical;
    }
    if (Failures) {
      std::fprintf(stderr, "splrun: %d verification failure%s\n", Failures,
                   Failures == 1 ? "" : "s");
      return tools::ExitExec;
    }
  }

  if (Stats || !StatsJsonPath.empty()) {
    auto Json = Client.stats();
    if (!Json)
      return clientFail(Client, "stats request failed");
    if (Stats)
      std::fprintf(stderr, "spld stats: %s\n", Json->c_str());
    if (!StatsJsonPath.empty() &&
        !writeFileOrComplain(StatsJsonPath, *Json + "\n", "daemon stats JSON"))
      return tools::ExitExec;
  }

  if (Shutdown && !Client.shutdownServer())
    return clientFail(Client, "shutdown request failed");
  return tools::ExitOK;
}

} // namespace

int main(int Argc, char **Argv) {
  runtime::PlanSpec Spec;
  runtime::PlannerOptions POpts;
  std::int64_t Batch = 1;
  int Threads = 1;
  std::int64_t DeadlineMs = 0;
  std::int64_t HowMany = 0; // 0 = not set; strided mode uses Batch then.
  std::int64_t Stride = 1;
  std::int64_t Dist = 0;
  bool Strided = false;
  bool Verify = false;
  bool Stats = false;
  std::string StatsJsonPath;
  std::string TraceJsonPath;
  std::string ConnectPath;
  bool Shutdown = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "splrun: error: %s needs a value\n", Flag);
        std::exit(tools::ExitUsage);
      }
      return Argv[++I];
    };
    if (Arg == "--transform") {
      Spec.Transform = Next("--transform");
      // Unknown transform names are a usage error (exit 2), distinct from
      // a structurally invalid spec (exit 3): the flag value itself is
      // wrong, and the registry knows the full menu.
      if (!transforms::lookup(Spec.Transform)) {
        std::fprintf(stderr,
                     "splrun: error: unknown transform '%s' (supported: "
                     "%s)\n",
                     Spec.Transform.c_str(),
                     transforms::supportedNames().c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--size") {
      Spec.Size = std::atoll(Next("--size"));
    } else if (Arg == "--shape") {
      const char *Text = Next("--shape");
      if (!parseShape(Text, Spec.Shape)) {
        std::fprintf(stderr,
                     "splrun: error: --shape wants n1xn2[x...] with every "
                     "dimension >= 1 (got '%s')\n",
                     Text);
        return tools::ExitUsage;
      }
    } else if (Arg == "--howmany") {
      HowMany = std::atoll(Next("--howmany"));
      Strided = true;
    } else if (Arg == "--stride") {
      Stride = std::atoll(Next("--stride"));
      Strided = true;
    } else if (Arg == "--dist") {
      Dist = std::atoll(Next("--dist"));
      Strided = true;
    } else if (Arg == "--batch") {
      Batch = std::atoll(Next("--batch"));
    } else if (Arg == "--threads") {
      Threads = std::atoi(Next("--threads"));
    } else if (Arg == "--deadline-ms") {
      DeadlineMs = std::atoll(Next("--deadline-ms"));
      if (DeadlineMs < 0) {
        std::fprintf(stderr, "splrun: error: --deadline-ms must be >= 0\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--backend") {
      std::string Name = Next("--backend");
      if (!runtime::parseBackend(Name, Spec.Want)) {
        std::fprintf(stderr, "splrun: error: unknown backend '%s'\n",
                     Name.c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--codegen") {
      std::string Name = Next("--codegen");
      if (!runtime::parseCodegenMode(Name, Spec.Codegen)) {
        std::fprintf(stderr, "splrun: error: unknown codegen mode '%s'\n",
                     Name.c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--unroll") {
      Spec.UnrollThreshold = std::atoll(Next("--unroll"));
    } else if (Arg == "--leaf") {
      Spec.MaxLeaf = std::atoll(Next("--leaf"));
    } else if (Arg == "--eval") {
      POpts.Evaluator = Next("--eval");
      if (POpts.Evaluator != "opcount" && POpts.Evaluator != "vmtime" &&
          POpts.Evaluator != "native") {
        std::fprintf(stderr, "splrun: error: unknown cost model '%s'\n",
                     POpts.Evaluator.c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--search-threads") {
      POpts.SearchThreads = std::atoi(Next("--search-threads"));
    } else if (Arg == "--wisdom") {
      POpts.WisdomPath = Next("--wisdom");
    } else if (Arg == "--no-wisdom") {
      POpts.UseWisdom = false;
    } else if (Arg == "--kernel-cache") {
      POpts.KernelCacheDir = Next("--kernel-cache");
    } else if (Arg == "--no-kernel-cache") {
      POpts.DisableKernelCache = true;
    } else if (Arg == "--connect") {
      ConnectPath = Next("--connect");
    } else if (Arg == "--shutdown") {
      Shutdown = true;
    } else if (Arg == "--verify") {
      Verify = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--stats-json") {
      StatsJsonPath = Next("--stats-json");
      telemetry::setMetricsEnabled(true);
    } else if (Arg == "--trace-json") {
      TraceJsonPath = Next("--trace-json");
      telemetry::setTracingEnabled(true);
    } else if (Arg == "--version") {
      std::printf("%s\n", tools::versionString("splrun").c_str());
      return tools::ExitOK;
    } else if (Arg == "-h" || Arg == "--help") {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "splrun: error: unknown option '%s'\n",
                   Arg.c_str());
      printUsage();
      return tools::ExitUsage;
    }
  }

  if (Shutdown && ConnectPath.empty()) {
    std::fprintf(stderr, "splrun: error: --shutdown requires --connect\n");
    return tools::ExitUsage;
  }
  // In connect mode a size-less invocation is still useful (stats scrape,
  // shutdown); otherwise a size (or a shape) is mandatory.
  bool SizelessConnect =
      !ConnectPath.empty() && Spec.Size == 0 && Spec.Shape.empty() &&
      (Shutdown || Stats || !StatsJsonPath.empty());
  if (Spec.Size < 2 && Spec.Shape.empty() && !SizelessConnect) {
    std::fprintf(stderr, "splrun: error: --size must be >= 2\n");
    return tools::ExitUsage;
  }
  if (Batch < 1 || Threads < 1 || POpts.SearchThreads < 1) {
    std::fprintf(stderr,
                 "splrun: error: --batch, --threads and --search-threads "
                 "must be >= 1\n");
    return tools::ExitUsage;
  }
  if (Strided) {
    if (!ConnectPath.empty()) {
      // The wire protocol ships densely packed batches only; gather on the
      // client side instead of teaching the daemon every layout.
      std::fprintf(stderr,
                   "splrun: error: --stride/--dist/--howmany need a local "
                   "plan (not --connect)\n");
      return tools::ExitUsage;
    }
    if (HowMany == 0)
      HowMany = Batch;
    if (HowMany < 1 || Stride < 1 || Dist < 0) {
      std::fprintf(stderr,
                   "splrun: error: --howmany and --stride must be >= 1, "
                   "--dist >= 0\n");
      return tools::ExitUsage;
    }
  }

  Diagnostics Diags;
  // Spec rejection exits with the parse code; later planning trouble (a
  // search or compilation failure) is a distinct stage.
  if (!SizelessConnect && !runtime::Planner::validateSpec(Spec, Diags)) {
    std::fputs(Diags.dump().c_str(), stderr);
    return tools::ExitParse;
  }

  if (!ConnectPath.empty())
    return runConnected(ConnectPath, Spec, POpts, Batch, Threads, DeadlineMs,
                        Verify, Stats, StatsJsonPath, Shutdown);

  runtime::Planner Planner(Diags, POpts);
  runtime::PlanRegistry Registry(Planner);

  // One budget covers planning and the timed batch: whatever planning
  // leaves over bounds execution.
  const support::Deadline DL = support::Deadline::afterMs(DeadlineMs);

  Timer PlanWall;
  runtime::PlanError PErr = runtime::PlanError::None;
  std::shared_ptr<runtime::Plan> Plan;
  if (int Code = tools::runCompileStage("splrun", [&] {
        Plan = Registry.acquire(Spec, DL, &PErr);
        return 0;
      }))
    return Code;
  double PlanSeconds = PlanWall.seconds();
  if (!Plan) {
    std::fputs(Diags.dump().c_str(), stderr);
    if (PErr == runtime::PlanError::DeadlineExceeded) {
      std::fprintf(stderr,
                   "splrun: error: the --deadline-ms budget expired while "
                   "planning\n");
      return tools::ExitDeadline;
    }
    return tools::ExitCompile;
  }
  if (POpts.UseWisdom)
    Planner.saveWisdom();

  std::printf("plan: %s\n", Plan->describe().c_str());
  std::printf("planning took %.3f s\n", PlanSeconds);

  const std::int64_t Len = Plan->vectorLen();
  runtime::AlignedBuffer X(static_cast<size_t>(Batch * Len));
  runtime::AlignedBuffer Y(static_cast<size_t>(Batch * Len));
  fillRandom(X.data(), Batch * Len, 7);

  // Single-vector latency (best-of-3, FFTW benchmark style).
  double Single =
      timeBestOf([&] { Plan->execute(Y.data(), X.data()); }, 3);
  std::printf("single-vector latency: %.3f us (%.1f kvec/s)\n", Single * 1e6,
              1e-3 / Single);

  // Batched throughput at the requested thread count, bounded by whatever
  // the planning pass left of the deadline budget. Strided mode times the
  // FFTW-advanced layout instead of the dense one.
  runtime::BatchLayout BL;
  BL.HowMany = Batch;
  runtime::AlignedBuffer SX(0), SY(0);
  const std::int64_t Span = (Len - 1) * Stride + 1;
  const std::int64_t D = Dist ? Dist : Span;
  if (Strided) {
    BL.HowMany = HowMany;
    BL.StrideX = BL.StrideY = Stride;
    BL.DistX = BL.DistY = Dist;
    if (Dist && Dist < Span) {
      std::fprintf(stderr,
                   "splrun: error: --dist %lld overlaps vectors of span "
                   "%lld (stride %lld)\n",
                   static_cast<long long>(Dist), static_cast<long long>(Span),
                   static_cast<long long>(Stride));
      return tools::ExitUsage;
    }
    const std::int64_t Total = (HowMany - 1) * D + Span;
    SX.resize(static_cast<size_t>(Total));
    SY.resize(static_cast<size_t>(Total));
    fillRandom(SX.data(), Total, 11);
  }

  Timer BatchWall;
  runtime::ExecStatus BS =
      Strided ? Plan->executeBatch(SY.data(), SX.data(), BL, DL, Threads)
              : Plan->executeBatch(Y.data(), X.data(), BL, DL, Threads);
  if (BS == runtime::ExecStatus::DeadlineExceeded) {
    std::fprintf(stderr, "splrun: error: the --deadline-ms budget expired "
                         "before the batch finished\n");
    return tools::ExitDeadline;
  }
  double BatchSeconds = BatchWall.seconds();
  const std::int64_t Timed = Strided ? HowMany : Batch;
  std::printf("batch %lld%s @ %d thread%s: %.3f s (%.1f kvec/s)\n",
              static_cast<long long>(Timed),
              Strided ? " (strided)" : "", Threads,
              Threads == 1 ? "" : "s", BatchSeconds,
              1e-3 * static_cast<double>(Timed) / BatchSeconds);

  if (Stats) {
    auto RS = Registry.stats();
    std::fprintf(stderr, "registry: %zu plans, %zu hits, %zu misses\n",
                 Registry.size(), RS.Hits, RS.Misses);
    if (POpts.UseWisdom)
      std::fprintf(stderr, "%s (%s)\n", Planner.wisdom().summary().c_str(),
                   Planner.wisdomPath().c_str());
    if (telemetry::metricsEnabled()) {
      // The catalogue instruments: so far this process has executed only
      // this plan.
      std::fprintf(
          stderr,
          "execute stats: %llu executes (p50 %llu ns), %llu batches over "
          "%llu vectors (p50 %llu ns)\n",
          static_cast<unsigned long long>(telemetry::RuntimeExecutes.value()),
          static_cast<unsigned long long>(
              telemetry::RuntimeExecuteNs.snapshot().p50()),
          static_cast<unsigned long long>(telemetry::RuntimeBatches.value()),
          static_cast<unsigned long long>(
              telemetry::RuntimeBatchVectors.value()),
          static_cast<unsigned long long>(
              telemetry::RuntimeBatchNs.snapshot().p50()));
    }
  }

  int Failures = 0;
  if (Verify) {
    const double Tol = 1e-10;
    // Cross-check against the VM on a bounded prefix of the batch (the VM
    // interprets i-code, so a full 4096-vector sweep would dominate run
    // time without strengthening the check).
    std::int64_t NCheck = std::min<std::int64_t>(Batch, 256);
    if (Plan->backend() == runtime::Backend::Native) {
      runtime::PlanSpec VMSpec = Spec;
      VMSpec.Want = runtime::Backend::VM;
      auto VMPlan = Registry.acquire(VMSpec);
      if (!VMPlan) {
        std::fputs(Diags.dump().c_str(), stderr);
        return tools::ExitCompile;
      }
      runtime::AlignedBuffer YV(static_cast<size_t>(NCheck * Len));
      VMPlan->executeBatch(YV.data(), X.data(), NCheck, Threads);
      Plan->executeBatch(Y.data(), X.data(), NCheck, Threads);
      double Delta = maxAbsDiff(Y.data(), YV.data(), NCheck * Len);
      bool OK = Delta <= Tol;
      std::printf("verify: native vs vm on %lld vectors: max |delta| = "
                  "%.3g (tol %g): %s\n",
                  static_cast<long long>(NCheck), Delta, Tol,
                  OK ? "OK" : "FAIL");
      Failures += !OK;
    } else {
      const std::string Why =
          Plan->usedFallback()
              ? Plan->fallbackReason()
              : std::string(runtime::backendName(Spec.Want)) + " requested";
      std::printf("verify: native backend not in use (%s); skipping the "
                  "native-vs-vm check\n",
                  Why.c_str());
    }

    // Vector kernels get a second native-vs-native check: the same spec
    // forced to scalar codegen must agree to tolerance (the two kernels
    // share i-code but nothing downstream of the emitters).
    if (Plan->backend() == runtime::Backend::Native &&
        Plan->codegenVariant() == codegen::CodegenVariant::Vector) {
      runtime::PlanSpec ScalarSpec = Spec;
      ScalarSpec.Codegen = runtime::CodegenMode::Scalar;
      auto SPlan = Registry.acquire(ScalarSpec);
      if (!SPlan) {
        std::fputs(Diags.dump().c_str(), stderr);
        return tools::ExitCompile;
      }
      runtime::AlignedBuffer YS(static_cast<size_t>(NCheck * Len));
      SPlan->executeBatch(YS.data(), X.data(), NCheck, Threads);
      Plan->executeBatch(Y.data(), X.data(), NCheck, Threads);
      double Delta = maxAbsDiff(Y.data(), YS.data(), NCheck * Len);
      bool OK = Delta <= Tol;
      std::printf("verify: vector vs scalar native on %lld vectors: max "
                  "|delta| = %.3g (tol %g): %s\n",
                  static_cast<long long>(NCheck), Delta, Tol,
                  OK ? "OK" : "FAIL");
      Failures += !OK;
    }

    // Independent dense-oracle check against the registry's matrix (the
    // Kronecker product of per-dimension oracles for N-D plans), so
    // whatever tier the degradation chain landed on — and whatever
    // formula/layout adapter produced the kernel — the plan's numbers are
    // checked against the transform's exact semantics. Bounded: the dense
    // apply is O(N^2).
    const transforms::TransformInfo *TI =
        transforms::lookup(Plan->spec().Transform);
    if (Plan->size() <= 4096 && TI) {
      std::vector<std::int64_t> Dims = Plan->spec().Shape;
      if (Dims.empty())
        Dims.push_back(Plan->size());
      Matrix M = transforms::oracleMatrix(*TI, Dims);
      const size_t N = M.cols();
      const bool ComplexData =
          Plan->layout() == runtime::Plan::Layout::Interleaved;
      std::vector<Cplx> In(N);
      for (size_t I = 0; I != N; ++I)
        In[I] = ComplexData ? Cplx(X.data()[2 * I], X.data()[2 * I + 1])
                            : Cplx(X.data()[I], 0.0);
      std::vector<Cplx> Ref = M.apply(In);
      Plan->execute(Y.data(), X.data());
      double Delta = 0;
      for (size_t I = 0; I != Ref.size(); ++I)
        if (ComplexData) {
          Delta = std::max(Delta,
                           std::fabs(Y.data()[2 * I] - Ref[I].real()));
          Delta = std::max(Delta,
                           std::fabs(Y.data()[2 * I + 1] - Ref[I].imag()));
        } else {
          Delta = std::max(Delta, std::fabs(Y.data()[I] - Ref[I].real()));
        }
      bool OK = Delta <= Tol;
      std::printf("verify: %s backend vs dense %s oracle: max |delta| = "
                  "%.3g (tol %g): %s\n",
                  runtime::backendName(Plan->backend()), TI->Name, Delta,
                  Tol, OK ? "OK" : "FAIL");
      Failures += !OK;
    }

    // Strided layout check: strided and dense layouts run the same
    // staging code, so every gathered vector of the strided batch must
    // match a dense execute of the same gathered input bit for bit.
    if (Strided) {
      runtime::AlignedBuffer DIn(static_cast<size_t>(Len));
      runtime::AlignedBuffer DOut(static_cast<size_t>(Len));
      runtime::AlignedBuffer Got(static_cast<size_t>(Len));
      std::int64_t Mismatched = 0;
      for (std::int64_t V = 0; V != HowMany; ++V) {
        for (std::int64_t I = 0; I != Len; ++I) {
          DIn.data()[I] = SX.data()[V * D + I * Stride];
          Got.data()[I] = SY.data()[V * D + I * Stride];
        }
        Plan->execute(DOut.data(), DIn.data());
        Mismatched += std::memcmp(Got.data(), DOut.data(),
                                  static_cast<size_t>(Len) *
                                      sizeof(double)) != 0;
      }
      std::printf("verify: strided batch of %lld (stride %lld, dist %lld) "
                  "vs dense: %lld vectors differ: %s\n",
                  static_cast<long long>(HowMany),
                  static_cast<long long>(Stride), static_cast<long long>(D),
                  static_cast<long long>(Mismatched),
                  Mismatched ? "FAIL" : "bit-identical OK");
      Failures += Mismatched != 0;
    }

    // Thread-count determinism: 1 thread vs the requested count must be
    // bit-identical. Bounded for the interpreted backend.
    std::int64_t NDet = Plan->backend() == runtime::Backend::Native
                            ? Batch
                            : std::min<std::int64_t>(Batch, 256);
    runtime::AlignedBuffer Y1(static_cast<size_t>(NDet * Len));
    Plan->executeBatch(Y1.data(), X.data(), NDet, 1);
    Plan->executeBatch(Y.data(), X.data(), NDet, Threads);
    bool Identical =
        std::memcmp(Y1.data(), Y.data(),
                    static_cast<size_t>(NDet * Len) * sizeof(double)) == 0;
    std::printf("verify: 1-thread vs %d-thread batch of %lld: %s\n", Threads,
                static_cast<long long>(NDet),
                Identical ? "bit-identical OK" : "MISMATCH");
    Failures += !Identical;
  }

  std::fputs(Diags.dump().c_str(), stderr);

  bool DumpFailed = false;
  if (!StatsJsonPath.empty())
    DumpFailed |= !writeFileOrComplain(StatsJsonPath,
                                       telemetry::metricsJson() + "\n",
                                       "metrics JSON");
  if (!TraceJsonPath.empty())
    DumpFailed |=
        !writeFileOrComplain(TraceJsonPath, telemetry::traceJson(),
                             "trace JSON");

  if (Failures) {
    std::fprintf(stderr, "splrun: %d verification failure%s\n", Failures,
                 Failures == 1 ? "" : "s");
    return tools::ExitExec;
  }
  return DumpFailed ? tools::ExitExec : tools::ExitOK;
}
