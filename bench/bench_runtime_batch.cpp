//===- bench/bench_runtime_batch.cpp - Runtime batch throughput ----------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the plan/execute runtime layer: single-vector latency of a
/// planned transform, then batched throughput as the worker-thread count
/// grows. On a multicore host throughput should rise monotonically from 1 to
/// 4 threads for sizes whose per-vector work amortizes dispatch. Mirrors how
/// FFTW reports planned performance (plan once, execute many).
///
/// It ends with a gate on thread-count churn: one fft 256 plan runs batches
/// of 8 vectors at a steady 2 threads, a steady 3 threads, and alternating
/// 2/3. Every batch fans out through the one process-wide compute pool, so
/// switching widths costs nothing; the gate prints "GATE OK" when the
/// alternating median is within 10% of the mean of the two steady medians
/// and exits 1 otherwise.
///
/// Environment knobs (in addition to BenchUtil's):
///   SPL_RT_MAXLG=<k>     largest FFT size 2^k to plan (default 12)
///   SPL_RT_BATCH=<b>     vectors per batch (default 2048)
///   SPL_RT_MAXTHREADS=<t> largest worker count to sweep (default 8)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "runtime/Planner.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

using namespace spl;
using namespace spl::bench;

namespace {

/// Median seconds per batch over 7 rounds of 2000 fft 256 x8 batches for
/// each of the three thread schedules, then the verdict. Within a round the
/// schedules take turns in blocks of 50 batches, so host noise lands on all
/// three alike.
int threadChurnGate(runtime::Planner &Planner) {
  runtime::PlanSpec Spec;
  Spec.Size = 256;
  Spec.Want = nativeAllowed() ? runtime::Backend::Auto : runtime::Backend::VM;
  auto Plan = Planner.plan(Spec);
  if (!Plan)
    return 1;
  constexpr std::int64_t Batch = 8;
  constexpr int Batches = 2000, Block = 50, Rounds = 7;
  std::vector<double> X(static_cast<size_t>(Batch * Plan->vectorLen()), 0.5),
      Y(X.size());
  // Threads for batch I of a block: steady 2, steady 3, alternating 2/3.
  const auto ThreadsOf = [](int Schedule, int I) {
    return Schedule == 2 ? 2 + I % 2 : 2 + Schedule;
  };
  std::vector<double> PerBatch[3]; // One entry per round and schedule.
  for (int R = 0; R != Rounds; ++R) {
    double Seconds[3] = {0, 0, 0};
    for (int B = 0; B != Batches / Block; ++B)
      for (int K = 0; K != 3; ++K) {
        const int Schedule = (B + K) % 3; // Rotate who goes first.
        Timer Wall;
        for (int I = 0; I != Block; ++I)
          Plan->executeBatch(Y.data(), X.data(), Batch,
                             ThreadsOf(Schedule, I));
        Seconds[Schedule] += Wall.seconds();
      }
    for (int S = 0; S != 3; ++S)
      PerBatch[S].push_back(Seconds[S] / Batches);
  }
  auto Median = [](std::vector<double> V) {
    std::nth_element(V.begin(), V.begin() + V.size() / 2, V.end());
    return V[V.size() / 2];
  };
  const double S2 = Median(PerBatch[0]), S3 = Median(PerBatch[1]),
               Alt = Median(PerBatch[2]), Bound = 1.10 * (S2 + S3) / 2;
  std::printf("\nthread churn, fft 256 x%lld (%s), median us/batch: "
              "steady 2 = %.1f, steady 3 = %.1f, alternating 2/3 = %.1f "
              "(bound %.1f)\n",
              static_cast<long long>(Batch), backendName(Plan->backend()),
              S2 * 1e6, S3 * 1e6, Alt * 1e6, Bound * 1e6);
  if (Alt > Bound) {
    std::puts("GATE FAILED: alternating thread counts must cost at most 10% "
              "over the steady mean");
    return 1;
  }
  std::puts("GATE OK");
  return 0;
}

} // namespace

int main() {
  printPreamble("Runtime layer: batched multi-threaded dispatch",
                "FFTW-style plan/execute on the searched winners");

  const std::int64_t MaxLg = envInt("SPL_RT_MAXLG", 12);
  const std::int64_t Batch = envInt("SPL_RT_BATCH", 2048);
  const int MaxThreads = static_cast<int>(envInt("SPL_RT_MAXTHREADS", 8));
  std::printf("host reports %u hardware threads\n\n",
              std::thread::hardware_concurrency());

  Diagnostics Diags;
  runtime::PlannerOptions POpts;
  POpts.UseWisdom = false; // Self-contained runs; no cache file traffic.
  if (!nativeAllowed()) {
    // Force the portable substrate explicitly so the table says so.
    std::puts("note: VM backend (no C compiler); absolute numbers are "
              "interpreter-bound\n");
  }
  runtime::Planner Planner(Diags, POpts);

  std::vector<int> ThreadCounts;
  for (int T = 1; T <= MaxThreads; T *= 2)
    ThreadCounts.push_back(T);

  std::printf("%8s  %12s  %10s", "N", "latency us", "backend");
  for (int T : ThreadCounts)
    std::printf("  %8s%d", "kvec/s@", T);
  std::printf("\n");

  for (std::int64_t Lg = 4; Lg <= MaxLg; Lg += 2) {
    runtime::PlanSpec Spec;
    Spec.Size = std::int64_t(1) << Lg;
    Spec.Want =
        nativeAllowed() ? runtime::Backend::Auto : runtime::Backend::VM;
    auto Plan = Planner.plan(Spec);
    if (!Plan) {
      std::fputs(Diags.dump().c_str(), stderr);
      return 1;
    }

    const std::int64_t Len = Plan->vectorLen();
    // The VM is 10-60x slower than native code; shrink its batches so the
    // sweep stays interactive.
    const std::int64_t B =
        Plan->backend() == runtime::Backend::VM
            ? std::max<std::int64_t>(ThreadCounts.back(), Batch / 16)
            : Batch;
    std::vector<double> X(static_cast<size_t>(B * Len)),
        Y(static_cast<size_t>(B * Len));
    std::mt19937 Gen(11);
    std::uniform_real_distribution<double> Dist(-1, 1);
    for (double &V : X)
      V = Dist(Gen);

    double Single = timeBestOf([&] { Plan->execute(Y.data(), X.data()); }, 3);
    std::printf("%8lld  %12.3f  %10s", static_cast<long long>(Spec.Size),
                Single * 1e6, backendName(Plan->backend()));

    for (int T : ThreadCounts) {
      Timer Wall;
      Plan->executeBatch(Y.data(), X.data(), B, T);
      double Sec = Wall.seconds();
      std::printf("  %9.1f", 1e-3 * static_cast<double>(B) / Sec);
    }
    std::printf("\n");
    std::fflush(stdout);
  }

  std::puts("\nthroughput should grow monotonically 1 -> 4 threads on a "
            "multicore host\n(flat columns mean the host has fewer cores "
            "than workers, or vectors are\ntoo small to amortize dispatch).");
  return threadChurnGate(Planner);
}
