//===- perfbench/src/SpldWorkload.cpp - Plan-serving round trips ----------===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Set-up plans each spec in-process (the reference every response must match
// bit for bit), starts a service::Server on a private socket over the same
// wisdom and kernel cache, and plans each spec once through it. The timed
// phase runs two client connections in a closed loop: ~90% execute
// requests (1-vector fft 256, where per-request overhead dominates, and
// fft 2^16 x8 = 8 MiB, where payload copies dominate) and ~10% plan
// requests, which are registry hits.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "service/Client.h"
#include "service/Server.h"

#include <cstring>
#include <thread>

using namespace spl;

namespace perfbench {
namespace {

constexpr int kClients = 2;
constexpr double kPlanShare = 0.1;
constexpr std::chrono::milliseconds kTraceSlice{250};
constexpr int kSpldSetups = 11;

std::vector<BenchSpec> spldSpecs() {
  std::vector<BenchSpec> Specs(2);
  Specs[0].Label = "fft256";
  Specs[0].Spec.Size = 256;
  Specs[0].HowMany = 1;
  Specs[1].Label = "fft65536";
  Specs[1].Spec.Size = 65536;
  Specs[1].HowMany = 8;
  return Specs;
}

struct Prepared {
  BenchSpec B;
  std::shared_ptr<runtime::Plan> Plan; ///< In-process reference plan.
  Buffer X, Verified;
};

struct SetupState {
  PlanDirs Dirs;
  std::vector<Prepared> Mix;
  std::unique_ptr<service::Server> Server;
  std::string Socket;
};

SetupState setUp(const Options &O, int Index, SampleSet &ColdPlan,
                 SampleSet &WarmPlan, std::vector<Pin> &Pins, Outcome &Out) {
  SetupState S;
  S.Dirs = PlanDirs::fresh(O.WorkDir, "setup-" + std::to_string(Index));
  std::mt19937_64 Gen(O.Seed * 15485863 + 5);
  const std::vector<BenchSpec> Specs = spldSpecs();
  for (std::size_t I = 0; I != Specs.size(); ++I) {
    Prepared P;
    P.B = Specs[I];
    double Ms = 0;
    std::string Why;
    Out.attempt();
    P.Plan = planOnce(P.B.Spec, S.Dirs, Ms, Why);
    if (!P.Plan) {
      Out.fail(Why);
      continue;
    }
    ColdPlan.add(P.B.Label, Ms);
    if (!Pins[I].check(*P.Plan, runtime::Backend::Native, Why)) {
      Out.fail(Why);
      continue;
    }
    P.X = randomVector(Gen, inputExtent(P.B));
    P.Verified.assign(outputExtent(P.B), 0.0);
    executeSpec(*P.Plan, P.B, P.Verified.data(), P.X.data());
    if (!OracleCheck(P.B, O.Seed).check(P.Verified.data(), P.X.data(), Why)) {
      Out.fail(Why);
      continue;
    }
    S.Mix.push_back(std::move(P));
  }

  // Relative path: the run's working directory is the private scratch
  // directory, which keeps the socket path short.
  S.Socket = "spld-" + std::to_string(Index) + ".sock";
  service::ServerOptions SO;
  SO.SocketPath = S.Socket;
  SO.Workers = kClients;
  SO.Planner = plannerOptions(S.Dirs);
  S.Server = std::make_unique<service::Server>(SO);
  if (!S.Server->start()) {
    Out.fail("spld: cannot start the server: " +
             S.Server->diagnostics().dump());
    return S;
  }
  service::Client C;
  if (!C.connect(S.Socket)) {
    Out.fail("spld: connect failed: " + C.lastError());
    return S;
  }
  for (Prepared &P : S.Mix) {
    Out.attempt();
    const Clock::time_point T0 = Clock::now();
    std::optional<service::PlanResponse> R = C.planRetryBusy(P.B.Spec);
    const double Ms = msSince(T0);
    if (!R) {
      Out.fail(P.B.Label + ": plan request failed: " + C.lastError());
      continue;
    }
    WarmPlan.add(P.B.Label, Ms);
    if (R->Backend != "native" || R->Fallback ||
        R->FormulaText != P.Plan->formulaText())
      Out.fail(P.B.Label + ": spld planned " + R->Backend + " winner " +
               hashText(R->FormulaText) + ", in-process " +
               hashText(P.Plan->formulaText()));
    Out.attempt();
    Buffer Y(P.Verified.size(), 0.0);
    if (!C.executeRetryBusy(P.B.Spec, Y.data(), P.X.data(), P.B.HowMany,
                            vectorLen(P.B.Spec)) ||
        std::memcmp(Y.data(), P.Verified.data(), Y.size() * sizeof(double)))
      Out.fail(P.B.Label + ": spld execute does not match the in-process "
                           "plan bit for bit: " +
               C.lastError());
  }
  return S;
}

/// One client connection's closed loop.
struct ClientLoop {
  SampleSet Lat, Bare, Spanned;
  std::int64_t Requests = 0;
};

/// Client \p Index executes spec \p Index only, so each execute class
/// always runs against the same background (the other client's stream)
/// instead of a seed-dependent mix of idle and contended moments. Plan
/// requests name either spec; both are registry hits and form one class.
void clientLoop(const SetupState &S, std::size_t Index, std::uint64_t Seed,
                double Seconds, Tracer &T, Outcome &Out, ClientLoop &L) {
  service::Client C;
  if (!C.connect(S.Socket)) {
    Out.fail("spld: connect failed: " + C.lastError());
    return;
  }
  std::mt19937_64 Gen(Seed);
  std::uniform_real_distribution<double> U(0.0, 1.0);
  const std::size_t I = Index % S.Mix.size();
  const Prepared &P = S.Mix[I];
  Buffer Y(P.Verified.size());
  const Clock::time_point Start = Clock::now();
  while (msSince(Start) < Seconds * 1000.0) {
    const bool Plan = U(Gen) < kPlanShare;
    const std::string Class = Plan ? "plan" : "exec-" + P.B.Label;
    Out.attempt();
    ++L.Requests;
    bool Ok;
    const unsigned Gen0 = T.generation();
    const bool Span = T.recording();
    const Clock::time_point T0 = Clock::now();
    {
      Tracer::Scope Sc(T, Plan ? "spld.plan" : "spld.execute");
      if (Plan) {
        const Prepared &Q = S.Mix[Gen() % S.Mix.size()];
        std::optional<service::PlanResponse> R = C.planRetryBusy(Q.B.Spec);
        Ok = R && R->Backend == "native" && !R->Fallback &&
             R->FormulaText == Q.Plan->formulaText();
      } else {
        Ok = C.executeRetryBusy(P.B.Spec, Y.data(), P.X.data(), P.B.HowMany,
                                vectorLen(P.B.Spec));
      }
    }
    const double Ms = msSince(T0);
    if (Ok && !Plan)
      Ok = std::memcmp(Y.data(), P.Verified.data(),
                       Y.size() * sizeof(double)) == 0;
    if (!Ok) {
      Out.fail(Class + ": request failed or mismatched: " + C.lastError());
      continue;
    }
    L.Lat.add(Class, Ms);
    // Only requests that ran entirely in one recording state count toward
    // trace.overhead_pct.
    if (T.enabled() && Gen0 % 2 == 0 && T.generation() == Gen0)
      (Span ? L.Spanned : L.Bare).add(Class, Ms);
  }
}

void merge(SampleSet &Into, const SampleSet &From) {
  for (const auto &[Key, V] : From.all())
    for (double X : V)
      Into.add(Key, X);
}

} // namespace

void runSpldWorkload(const Options &O, Outcome &Out) {
  Tracer T(O.Trace);
  SampleSet ColdPlan, WarmPlan;
  std::vector<Pin> Pins(spldSpecs().size());
  std::vector<double> SetupS;
  SetupState S;
  // More set-ups than the other workloads: the two cold plans (fft 2^16's
  // compile in particular) are its only cold samples, and with two specs
  // the median of 5 each left cold_plan_ms spreading 0.24 across runs.
  for (int I = 0; I != kSpldSetups; ++I) {
    if (I) {
      S.Server->stop();
      S.Mix.clear();
      S.Dirs.remove();
    }
    const Clock::time_point T0 = Clock::now();
    S = setUp(O, I, ColdPlan, WarmPlan, Pins, Out);
    SetupS.push_back(msSince(T0) / 1000.0);
  }

  std::vector<ClientLoop> Loops(kClients);
  const Clock::time_point Start = Clock::now();
  {
    std::vector<std::thread> Threads;
    for (int I = 0; I != kClients; ++I)
      Threads.emplace_back(clientLoop, std::cref(S), std::size_t(I),
                           O.Seed * 31 + I, O.Seconds, std::ref(T),
                           std::ref(Out), std::ref(Loops[I]));
    // Traced runs alternate in slices, because the telemetry registry is
    // process-wide: even slices with spans and telemetry, odd without.
    if (T.enabled())
      for (int Slice = 1; msSince(Start) < O.Seconds * 1000.0; ++Slice) {
        std::this_thread::sleep_until(Start + Slice * kTraceSlice);
        T.setRecording(Slice % 2 == 0);
      }
    for (std::thread &Th : Threads)
      Th.join();
  }
  const double Elapsed = msSince(Start) / 1000.0;
  T.setRecording(true);
  // rps weighs each client (one per request size) equally, like the
  // geometric means over specs elsewhere.
  SampleSet Lat, Bare, Spanned;
  std::vector<double> ClientRps;
  for (const ClientLoop &L : Loops) {
    merge(Lat, L.Lat);
    merge(Bare, L.Bare);
    merge(Spanned, L.Spanned);
    ClientRps.push_back(double(L.Requests) / Elapsed);
  }

  const service::Server::Stats Stats = S.Server->stats();
  const runtime::PlanRegistry::Stats Reg = S.Server->registry().stats();
  Out.note("spld: " + std::to_string(Stats.Requests) + " requests served, " +
           std::to_string(Stats.RejectedBusy) + " BUSY, " +
           std::to_string(Reg.Hits) + " registry hits");
  for (const auto &[Class, V] : Lat.all())
    Out.note("spld " + Class + ": " + std::to_string(V.size()) +
             " requests, p50 " + std::to_string(median(V)) + " ms, p90 " +
             std::to_string(quantile(V, 0.9)) + " ms");
  for (const auto &[Label, V] : WarmPlan.all())
    Out.note("spld " + Label + ": cold plan " +
             std::to_string(median(ColdPlan.all().at(Label))) +
             " ms, spld warm plan " + std::to_string(median(V)) + " ms");

  std::vector<double> Mf;
  for (const Prepared &P : S.Mix) {
    auto It = Lat.all().find("exec-" + P.B.Label);
    if (It != Lat.all().end())
      Mf.push_back(pseudoFlops(P.B.Spec) * double(P.B.HowMany) /
                   (median(It->second) * 1e3));
  }

  if (!O.Trace) {
    S.Server->stop();
    Out.metric("cold_plan_ms", ColdPlan.geomeanOf(0.5), "ms");
    Out.metric("warm_plan_ms", WarmPlan.geomeanOf(0.5), "ms");
    Out.metric("mflops", geomean(Mf), "MFlop/s");
    Out.metric("p50_ms", Lat.geomeanOf(0.5), "ms");
    Out.metric("p90_ms", Lat.geomeanOf(0.9), "ms");
    Out.metric("rps", geomean(ClientRps), "1/s");
    Out.metric("setup_s", median(SetupS), "s");
    Out.metric("peak_rss_mb", peakRssMb(), "MiB");
    return;
  }

  // In-process counterparts of the execute round trip: the same
  // executeBatch on the reference plan, and the wire encode/decode of the
  // request and response bodies.
  std::map<std::string, double> Layers;
  double Rtt = 0, Inproc = 0, Enc = 0, Dec = 0, Batch = 0, Kernel = 0,
         Flops = 0, Bytes = 0;
  std::vector<std::pair<std::string, std::shared_ptr<runtime::Plan>>> Plans;
  for (const Prepared &P : S.Mix) {
    Plans.push_back({P.B.Label, P.Plan});
    auto It = Lat.all().find("exec-" + P.B.Label);
    if (It == Lat.all().end())
      continue;
    Buffer Y(P.Verified.size());
    std::vector<double> InMs, EncMs, DecMs;
    service::ExecuteRequest Req;
    Req.Spec = service::WireSpec::fromSpec(P.B.Spec);
    Req.Count = P.B.HowMany;
    Req.Data.assign(P.X.begin(), P.X.end());
    service::ExecuteResponse Resp;
    Resp.Count = P.B.HowMany;
    Resp.VectorLen = vectorLen(P.B.Spec);
    Resp.Data.assign(P.Verified.begin(), P.Verified.end());
    for (int Rep = 0; Rep != 21; ++Rep) {
      Clock::time_point T0 = Clock::now();
      {
        Tracer::Scope Sc(T, "inproc.execute");
        executeSpec(*P.Plan, P.B, Y.data(), P.X.data());
      }
      InMs.push_back(msSince(T0));
      T0 = Clock::now();
      std::vector<std::uint8_t> ReqBytes, RespBytes;
      {
        Tracer::Scope Sc(T, "proto.encode");
        ReqBytes = Req.encode();
        RespBytes = Resp.encode();
      }
      EncMs.push_back(msSince(T0));
      service::ExecuteRequest ReqOut;
      service::ExecuteResponse RespOut;
      T0 = Clock::now();
      {
        Tracer::Scope Sc(T, "proto.decode");
        if (!service::ExecuteRequest::decode(ReqBytes.data(), ReqBytes.size(),
                                             ReqOut) ||
            !service::ExecuteResponse::decode(RespBytes.data(),
                                              RespBytes.size(), RespOut))
          Out.fail(P.B.Label + ": wire round trip failed to decode");
      }
      DecMs.push_back(msSince(T0));
    }
    const double RttUs = median(It->second) * 1e3;
    Rtt += RttUs;
    Inproc += median(InMs) * 1e3;
    Enc += median(EncMs) * 1e3;
    Dec += median(DecMs) * 1e3;
    const double BatchNs = median(InMs) * 1e6 / double(P.B.HowMany);
    Batch += BatchNs;
    Kernel += kernelOnlyNs(*P.Plan, P.B, 11);
    Flops += kernelFlops(*P.Plan);
    Bytes += kernelBytes(*P.Plan);
    Out.note("spld " + P.B.Label + ": round trip " + std::to_string(RttUs) +
             " us, in-process execute " +
             std::to_string(median(InMs) * 1e3) + " us, encode " +
             std::to_string(median(EncMs) * 1e3) + " us, decode " +
             std::to_string(median(DecMs) * 1e3) + " us");
  }
  Layers["spld.rtt_us"] = Rtt;
  Layers["spld.inproc_us"] = Inproc;
  Layers["spld.overhead_us"] = Rtt - Inproc;
  Layers["proto.encode_us"] = Enc;
  Layers["proto.decode_us"] = Dec;
  Layers["spld.busy_retries"] = double(Stats.RejectedBusy);
  Layers["registry.hits"] = double(Reg.Hits);
  Layers["exec.batch_ns"] = Batch;
  Layers["exec.kernel_ns"] = Kernel;
  Layers["exec.staging_ns"] = Batch - Kernel;
  Layers["kernel.flops"] = Flops;
  Layers["kernel.bytes"] = Bytes;
  S.Server->stop();
  ReplaySet ColdReplay, WarmReplay;
  replayAll(Plans, S.Dirs, O.WorkDir, 2, T, ColdReplay, WarmReplay);
  addPlanLayers(ColdPlan, WarmPlan, ColdReplay, WarmReplay, Layers);
  Layers["trace.coverage_pct"] = Rtt > 0 ? 100.0 * (Inproc + Enc + Dec) / Rtt : 0;
  Layers["trace.overhead_pct"] =
      100.0 * (Spanned.geomeanOf(0.5) / Bare.geomeanOf(0.5) - 1.0);
  emitLayers(Layers, Out);

  Out.note("spld: in-process execute + encode + decode explain " +
           std::to_string(Layers["trace.coverage_pct"]) +
           "% of the execute round trip (target >= 90%)");
  for (const auto &[Name, Ms] : T.selfTimes())
    Out.note("spld self time " + Name + ": " + std::to_string(Ms) + " ms");
  Out.note("spld gaps: server-side queue wait, frame read, registry acquire "
           "and reply write have no public entry point; they need spans "
           "inside service::Server");
  T.write(O.WorkDir + "/trace.json");
}

} // namespace perfbench
