//===- bench/bench_deadline_overload.cpp - Deadlines under overload -----------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable form of the deadline/overload acceptance gates
/// (docs/RELIABILITY.md "Latency bounds and overload"):
///
///   (a) shed-before-work: requests whose deadline expired while queued
///       behind a busy worker are answered with a typed DEADLINE_EXCEEDED
///       and consume zero pool execute time — the spld.execute_ns
///       histogram must not grow during a deadline storm
///   (b) breaker payoff: a forced compiler-failure storm (every compile
///       hangs to its timeout) trips the circuit breaker after K
///       consecutive failures, and p99 plan latency under the open breaker
///       is >= 10x lower than with the breaker disabled
///   (c) pressure determinism: every vector a deadline-pressured batch
///       does complete is bit-identical to the unpressured run —
///       cancellation lands between vectors, never inside one
///
/// Environment knobs (in addition to BenchUtil's):
///   SPL_DO_SATURATE=<n>   vectors in the worker-saturating batch (20000)
///   SPL_DO_STORM=<n>      1 ms-deadline clients in the storm (default 8)
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "runtime/Planner.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/CircuitBreaker.h"
#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace spl;
using namespace spl::bench;

namespace {

int Rc = 0;

void gate(bool OK, const char *What) {
  std::printf("%-58s %s\n", What, OK ? "OK" : "FAIL");
  if (!OK)
    Rc = 1;
}

double p99Ms(std::vector<double> MsSamples) {
  if (MsSamples.empty())
    return 0;
  std::sort(MsSamples.begin(), MsSamples.end());
  const std::size_t Idx =
      (MsSamples.size() * 99 + 99) / 100 - 1; // ceil(0.99 n) - 1
  return MsSamples[std::min(Idx, MsSamples.size() - 1)];
}

/// Gate (a): a single-worker daemon, its worker pinned by one long batch,
/// while a storm of 1 ms-deadline requests queues behind it. Every stormer
/// must get the typed rejection and the execute histogram must count only
/// the saturating batch.
void gateShedBeforeWork(JsonReport &Report) {
  const std::int64_t Saturate = envInt("SPL_DO_SATURATE", 20000);
  const int Storm = static_cast<int>(envInt("SPL_DO_STORM", 8));
  const std::string Socket =
      "/tmp/spl-bench-dlo-" + std::to_string(getpid()) + ".sock";

  service::ServerOptions Opts;
  Opts.SocketPath = Socket;
  Opts.Workers = 1; // One worker makes "queued behind a busy pool" exact.
  Opts.MaxInflight = Storm + 4;
  Opts.Planner.UseWisdom = false;
  service::Server Srv(Opts);
  if (!Srv.start()) {
    std::fprintf(stderr, "server did not start:\n%s",
                 Srv.diagnostics().dump().c_str());
    gate(false, "(a) daemon started");
    return;
  }

  runtime::PlanSpec Spec;
  Spec.Size = 64;
  Spec.Want = runtime::Backend::VM; // Deterministic, compiler-free.

  // Warm the registry so the storm measures queueing, not planning.
  std::int64_t Len = 0;
  {
    service::Client C;
    if (!C.connect(Socket)) {
      gate(false, "(a) warmup connect");
      Srv.stop();
      return;
    }
    auto PR = C.plan(Spec);
    if (!PR) {
      gate(false, "(a) warmup plan");
      Srv.stop();
      return;
    }
    Len = PR->VectorLen;
  }

  const std::uint64_t RequestsBefore = Srv.stats().Requests;
  const std::uint64_t ExecBefore =
      telemetry::histogram("spld.execute_ns").snapshot().Count;
  const std::uint64_t TypedBefore =
      telemetry::counter("spld.deadline_exceeded").value();

  // The saturating batch: one unbounded client occupies the only worker.
  std::atomic<bool> SaturatorOk{false};
  std::vector<double> BigX(static_cast<std::size_t>(Saturate * Len), 0.5),
      BigY(static_cast<std::size_t>(Saturate * Len));
  std::thread Saturator([&] {
    service::Client C;
    if (!C.connect(Socket))
      return;
    SaturatorOk.store(C.execute(Spec, BigY.data(), BigX.data(), Saturate,
                                Len));
  });

  // Wait until the server has read the whole saturating frame (it is then
  // handed to the only worker), then unleash the storm: each request
  // carries a 1 ms budget that is long dead by the time the worker frees
  // up. No fixed head start is safe: on a loaded host the 20 MB upload
  // can take longer than any short sleep.
  const auto ReadBy =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (Srv.stats().Requests == RequestsBefore &&
         std::chrono::steady_clock::now() < ReadBy)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  if (Srv.stats().Requests == RequestsBefore) {
    gate(false, "(a) server read the saturating frame within 30 s");
    Srv.stop();
    Saturator.join();
    return;
  }
  std::atomic<int> TypedRejections{0}, OtherOutcomes{0};
  std::vector<std::thread> Stormers;
  Stormers.reserve(Storm);
  for (int I = 0; I != Storm; ++I)
    Stormers.emplace_back([&] {
      service::Client C;
      if (!C.connect(Socket)) {
        OtherOutcomes.fetch_add(1);
        return;
      }
      C.setDeadline(support::Deadline::afterMs(1));
      std::vector<double> X(static_cast<std::size_t>(Len), 1.0),
          Y(static_cast<std::size_t>(Len));
      if (!C.execute(Spec, Y.data(), X.data(), 1, Len) &&
          C.lastStatus() == service::Status::DeadlineExceeded)
        TypedRejections.fetch_add(1);
      else
        OtherOutcomes.fetch_add(1);
    });
  for (auto &T : Stormers)
    T.join();
  Saturator.join();

  const std::uint64_t ExecDelta =
      telemetry::histogram("spld.execute_ns").snapshot().Count - ExecBefore;
  const service::Server::Stats SS = Srv.stats();
  Srv.stop();

  std::printf("storm of %d x 1 ms deadlines behind a %lld-vector batch: "
              "%d typed rejections, execute histogram grew by %llu\n",
              Storm, static_cast<long long>(Saturate),
              TypedRejections.load(),
              static_cast<unsigned long long>(ExecDelta));

  gate(SaturatorOk.load(), "(a) the saturating batch itself succeeded");
  gate(TypedRejections.load() == Storm && OtherOutcomes.load() == 0,
       "(a) every queued-out request rejected as DEADLINE_EXCEEDED");
  gate(ExecDelta == 1,
       "(a) rejections consumed zero pool execute time (histogram +1)");
  gate(SS.RejectedDeadline == static_cast<std::uint64_t>(Storm),
       "(a) server stats counted every deadline rejection");
  gate(telemetry::counter("spld.deadline_exceeded").value() - TypedBefore ==
           static_cast<std::uint64_t>(Storm),
       "(a) spld.deadline_exceeded counted every rejection");

  Report.num("storm_clients", Storm);
  Report.num("storm_typed_rejections", TypedRejections.load());
  Report.num("storm_execute_histogram_delta",
             static_cast<double>(ExecDelta));
}

/// Gate (c): one unpressured batch as reference, then the same batch under
/// a deadline that fires mid-run. Every vector the pressured run completed
/// must be bit-identical; untouched vectors keep their NaN sentinel.
void gatePressureDeterminism(JsonReport &Report) {
  Diagnostics Diags;
  runtime::PlannerOptions POpts;
  POpts.UseWisdom = false;
  runtime::Planner Planner(Diags, POpts);
  runtime::PlanSpec Spec;
  Spec.Size = 256;
  Spec.Want = runtime::Backend::VM;
  auto P = Planner.plan(Spec);
  if (!P) {
    std::fputs(Diags.dump().c_str(), stderr);
    gate(false, "(c) reference plan");
    return;
  }

  const std::int64_t Batch = 4096;
  const std::int64_t Len = P->vectorLen();
  std::vector<double> X(static_cast<std::size_t>(Batch * Len));
  for (std::size_t I = 0; I != X.size(); ++I)
    X[I] = std::sin(0.21 * static_cast<double>(I)) - 0.4;
  std::vector<double> YRef(static_cast<std::size_t>(Batch * Len));
  P->executeBatch(YRef.data(), X.data(), Batch, 1);
  runtime::BatchLayout BL;
  BL.HowMany = Batch;

  // A comfortable budget must change nothing, bit for bit.
  std::vector<double> YOk(static_cast<std::size_t>(Batch * Len));
  const runtime::ExecStatus StOk = P->executeBatch(
      YOk.data(), X.data(), BL, support::Deadline::afterMs(60000), 1);
  gate(StOk == runtime::ExecStatus::Ok && YOk == YRef,
       "(c) ample deadline: status Ok, bit-identical to unpressured");

  // A 1 ms budget over an interpreter-bound 4096-vector batch fires
  // mid-run; the completed prefix must match the reference exactly.
  const double NaN = std::nan("");
  std::vector<double> YCut(static_cast<std::size_t>(Batch * Len), NaN);
  const runtime::ExecStatus StCut = P->executeBatch(
      YCut.data(), X.data(), BL, support::Deadline::afterMs(1), 1);
  std::int64_t Computed = 0;
  bool PrefixIdentical = true;
  for (std::int64_t V = 0; V != Batch; ++V) {
    const double *Row = YCut.data() + V * Len;
    if (std::isnan(Row[0]))
      continue; // Never touched — the deadline landed before this vector.
    ++Computed;
    for (std::int64_t I = 0; I != Len; ++I)
      if (Row[I] != YRef[static_cast<std::size_t>(V * Len + I)])
        PrefixIdentical = false;
  }
  std::printf("pressured batch completed %lld of %lld vectors before the "
              "1 ms budget fired\n",
              static_cast<long long>(Computed),
              static_cast<long long>(Batch));
  gate(PrefixIdentical,
       "(c) every vector completed under pressure is bit-identical");
  gate(StCut == runtime::ExecStatus::Ok || Computed < Batch,
       "(c) DeadlineExceeded implies an incomplete batch, never a lie");

  Report.num("pressured_vectors_completed", static_cast<double>(Computed));
  Report.boolean("pressure_bit_identical", PrefixIdentical);
}

/// Gate (b): every compile hangs to a 150 ms leash. Disabled breaker: each
/// plan pays the full timeout. Open breaker: compile attempts fail fast
/// and plans degrade to the VM tier in milliseconds.
void gateBreakerPayoff(JsonReport &Report) {
  if (!nativeAllowed()) {
    std::puts("(b) no C compiler (or SPL_NO_NATIVE); breaker gate "
              "trivially green");
    Report.boolean("breaker_skipped", true);
    return;
  }

  setenv("SPL_FAULT", "native-compile-hang", 1);
  setenv("SPL_CC_TIMEOUT_MS", "150", 1);
  fault::reset();

  auto planMs = [](std::int64_t Size) {
    Diagnostics Diags;
    runtime::PlannerOptions POpts;
    POpts.UseWisdom = false;
    POpts.DisableKernelCache = true;
    runtime::Planner Planner(Diags, POpts);
    runtime::PlanSpec Spec;
    Spec.Size = Size;
    Timer Wall;
    auto P = Planner.plan(Spec);
    double Ms = Wall.seconds() * 1e3;
    return std::make_pair(P != nullptr, Ms);
  };
  // Small sizes keep the DP search itself in the noise, so the measured
  // latency is the compile path: the 150 ms leash when disabled, the
  // fail-fast rejection when open. Two passes of four sizes give eight
  // samples per phase (fresh Planner each plan, so nothing is memoized).
  const std::vector<std::int64_t> Sizes = {8, 16, 32, 64, 8, 16, 32, 64};

  // Phase 1 — breaker disabled (the library default): every plan forks the
  // hanging compiler and eats the full 150 ms leash before degrading.
  support::compileBreaker().configure(0, 0);
  std::vector<double> DisabledMs;
  for (std::int64_t N : Sizes) {
    auto [OK, Ms] = planMs(N);
    if (!OK) {
      gate(false, "(b) plans still succeed (VM tier) under the storm");
      return;
    }
    DisabledMs.push_back(Ms);
  }

  // Phase 2 — breaker armed at K=3 with a long cooldown: three sacrificial
  // plans trip it, then the same eight sizes plan under the open breaker.
  const std::uint64_t Trips0 =
      telemetry::counter("runtime.breaker.trips").value();
  support::compileBreaker().configure(3, 600000);
  for (std::int64_t N : {8, 16, 32})
    planMs(N);
  const bool Tripped =
      support::compileBreaker().state() ==
      support::CircuitBreaker::State::Open;
  std::vector<double> OpenMs;
  for (std::int64_t N : Sizes) {
    auto [OK, Ms] = planMs(N);
    if (!OK) {
      gate(false, "(b) plans still succeed (VM tier) under the storm");
      return;
    }
    OpenMs.push_back(Ms);
  }

  unsetenv("SPL_FAULT");
  unsetenv("SPL_CC_TIMEOUT_MS");
  fault::reset();
  support::compileBreaker().configure(0, 0);

  const double P99Disabled = p99Ms(DisabledMs);
  const double P99Open = p99Ms(OpenMs);
  const double Ratio = P99Open > 0 ? P99Disabled / P99Open : 0;
  std::printf("plan p99 under the compile storm: breaker disabled %.1f ms, "
              "breaker open %.1f ms (%.1fx)\n",
              P99Disabled, P99Open, Ratio);

  gate(Tripped, "(b) three consecutive compile failures tripped the "
                "breaker open");
  gate(telemetry::counter("runtime.breaker.trips").value() > Trips0,
       "(b) runtime.breaker.trips counted the trip");
  gate(telemetry::counter("runtime.breaker.open").value() > 0,
       "(b) runtime.breaker.open counted fail-fast rejections");
  gate(Ratio >= 10.0,
       "(b) p99 plan latency >= 10x lower under the open breaker");

  Report.boolean("breaker_skipped", false);
  Report.num("plan_p99_breaker_disabled_ms", P99Disabled);
  Report.num("plan_p99_breaker_open_ms", P99Open);
  Report.num("breaker_p99_ratio", Ratio);
}

} // namespace

int main() {
  printPreamble("Deadlines and overload: shed, trip, stay deterministic",
                "end-to-end deadline propagation and breaker gates");
  telemetry::setMetricsEnabled(true);
  JsonReport Report("deadline_overload");

  gateShedBeforeWork(Report);
  std::printf("\n");
  gatePressureDeterminism(Report);
  std::printf("\n");
  gateBreakerPayoff(Report);

  Report.boolean("gates_passed", Rc == 0);
  Report.write();
  std::printf("\n%s\n", Rc == 0 ? "ALL GATES PASSED" : "GATES FAILED");
  return Rc;
}
