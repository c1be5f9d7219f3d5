//===- service/Server.cpp - Multi-tenant plan-serving daemon core -------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "service/Socket.h"
#include "support/CircuitBreaker.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

using namespace spl;
using namespace spl::service;
using telemetry::jsonEscape;

Server::Server(ServerOptions OptsIn)
    : Opts(std::move(OptsIn)), ThePlanner(Diags, Opts.Planner),
      Registry(ThePlanner) {
  // The compile breaker is process-wide (one compiler, one breaker); the
  // daemon is the one deployment where overload protection should be on by
  // default, so spld's CLI passes a non-zero threshold here.
  if (Opts.BreakerThreshold > 0)
    support::compileBreaker().configure(Opts.BreakerThreshold,
                                        Opts.BreakerCooldownMs);
}

Server::~Server() { stop(); }

bool Server::start() {
  std::string Err;
  ListenFd = listenUnix(Opts.SocketPath, /*Backlog=*/128, Err);
  if (ListenFd < 0) {
    Diags.error(SourceLoc(), "spld: " + Err);
    return false;
  }
  Pool = std::make_unique<ThreadPool>(
      Opts.Workers > 0 ? static_cast<unsigned>(Opts.Workers)
                       : ThreadPool::defaultThreads());
  Running.store(true);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::waitForShutdownRequest() {
  std::unique_lock<std::mutex> Lock(ShutdownM);
  ShutdownCv.wait(Lock, [this] { return ShutdownFlag.load(); });
}

void Server::requestShutdown() {
  // Store and notify under ShutdownM so waitForShutdownRequest() cannot
  // evaluate its predicate, miss the store, and then sleep through the
  // notification (lost wakeup).
  std::lock_guard<std::mutex> Lock(ShutdownM);
  ShutdownFlag.store(true);
  ShutdownCv.notify_all();
}

void Server::stop() {
  if (!Running.exchange(false)) {
    if (ListenFd >= 0) { // start() failed after a partial setup.
      ::close(ListenFd);
      ListenFd = -1;
    }
    return;
  }
  requestShutdown();
  // Unblock accept(); readers stop at their next frame boundary.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  ::close(ListenFd);
  ListenFd = -1;

  reapConns(/*All=*/true);
  Pool.reset(); // Runs every admitted request, then joins the workers.
  ThePlanner.saveWisdom();
  ::unlink(Opts.SocketPath.c_str());
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return S;
}

void Server::count(std::uint64_t Stats::*Field) {
  std::lock_guard<std::mutex> Lock(StatsM);
  ++(S.*Field);
}

void Server::reapConns(bool All) {
  std::vector<std::shared_ptr<Conn>> Dead;
  {
    std::lock_guard<std::mutex> Lock(ConnsM);
    auto Gone = std::stable_partition(
        Conns.begin(), Conns.end(),
        [All](const auto &C) { return !All && !C->Done.load(); });
    Dead.assign(Gone, Conns.end());
    Conns.erase(Gone, Conns.end());
  }
  if (All) // Readers stop at their next frame; responses still go out.
    for (auto &C : Dead)
      ::shutdown(C->Fd, SHUT_RD);
  for (auto &C : Dead) {
    if (C->Reader.joinable())
      C->Reader.join();
    ::close(C->Fd);
  }
}

void Server::acceptLoop() {
  bool AcceptErrorLogged = false;
  while (Running.load()) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (!Running.load())
        break;
      if (errno == EINTR)
        continue;
      // Persistent failures (EMFILE/ENFILE under fd exhaustion) would
      // otherwise busy-spin this thread at 100% while still unable to
      // accept: back off briefly and log the first occurrence.
      if (!AcceptErrorLogged) {
        AcceptErrorLogged = true;
        Diags.error(SourceLoc(), std::string("spld: accept: ") +
                                     std::strerror(errno) +
                                     " (backing off; will keep retrying)");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    AcceptErrorLogged = false;
    reapConns(/*All=*/false);
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnsM);
      Conns.push_back(C);
    }
    telemetry::SpldConnections.add();
    telemetry::SpldActiveConnections.set(++LiveConns);
    count(&Stats::Connections);
    C->Reader = std::thread([this, C] { connLoop(C); });
  }
}

bool Server::sendFrame(Conn &C, MsgType Type, std::uint32_t RequestId,
                       std::span<const std::uint8_t> Body) {
  std::lock_guard<std::mutex> Lock(C.WriteM);
  return writeFrame(C.Fd, Type, RequestId, Body);
}

void Server::sendError(Conn &C, std::uint32_t RequestId, Status Code,
                       const std::string &Message) {
  switch (Code) {
  case Status::Busy:
    telemetry::SpldRejectedBusy.add();
    count(&Stats::RejectedBusy);
    break;
  case Status::TooLarge:
    telemetry::SpldRejectedTooLarge.add();
    count(&Stats::RejectedTooLarge);
    break;
  case Status::DeadlineExceeded:
    telemetry::SpldDeadlineExceeded.add();
    count(&Stats::RejectedDeadline);
    break;
  default:
    telemetry::SpldErrors.add();
    count(&Stats::Errors);
    break;
  }
  ErrorBody E;
  E.Code = Code;
  E.Message = Message;
  sendFrame(C, MsgType::ErrorResp, RequestId, E.encode());
}

bool Server::admit(Conn &C, std::uint32_t RequestId) {
  if (ShutdownFlag.load()) {
    sendError(C, RequestId, Status::ShuttingDown,
              "daemon is draining; no new work accepted");
    return false;
  }
  if (GlobalInflight.fetch_add(1, std::memory_order_relaxed) >=
      Opts.MaxInflight) {
    GlobalInflight.fetch_sub(1, std::memory_order_relaxed);
    sendError(C, RequestId, Status::Busy,
              "server queue is full (" + std::to_string(Opts.MaxInflight) +
                  " in flight); retry");
    return false;
  }
  if (C.Inflight.fetch_add(1, std::memory_order_relaxed) >=
      Opts.PerClientInflight) {
    C.Inflight.fetch_sub(1, std::memory_order_relaxed);
    GlobalInflight.fetch_sub(1, std::memory_order_relaxed);
    sendError(C, RequestId, Status::Busy,
              "per-client quota exceeded (" +
                  std::to_string(Opts.PerClientInflight) + " in flight)");
    return false;
  }
  telemetry::SpldInflight.set(GlobalInflight.load(std::memory_order_relaxed));
  return true;
}

std::shared_ptr<runtime::Plan>
Server::acquirePlan(Conn &C, std::uint32_t RequestId, const WireSpec &WS,
                    const support::Deadline &DL) {
  // The admission cap applies to the total transform size: the shape
  // product for N-D requests, WS.Size otherwise. The product is
  // clamped rather than wrapped so a hostile shape cannot sneak under the
  // cap via overflow.
  std::int64_t Total = WS.Size;
  if (!WS.Shape.empty()) {
    Total = 1;
    for (std::int64_t D : WS.Shape) {
      if (D < 1 || Total > Opts.MaxTransformSize) {
        Total = Opts.MaxTransformSize + 1;
        break;
      }
      Total *= D;
    }
  }
  if (Total > Opts.MaxTransformSize) {
    sendError(C, RequestId, Status::TooLarge,
              "transform size " + std::to_string(Total) +
                  " exceeds the server cap of " +
                  std::to_string(Opts.MaxTransformSize));
    return nullptr;
  }
  bool SpecOK = false;
  runtime::PlanSpec Spec = WS.toSpec(SpecOK);
  if (!SpecOK) {
    runtime::Backend B;
    sendError(C, RequestId, Status::BadRequest,
              !runtime::parseBackend(WS.Backend, B)
                  ? "unknown backend '" + WS.Backend + "'"
                  : "unknown codegen mode '" + WS.Codegen + "'");
    return nullptr;
  }
  if (Opts.Codegen != runtime::CodegenMode::Auto)
    Spec.Codegen = Opts.Codegen; // Server policy overrides the request.
  // Validate with a request-local engine so the reason travels back to the
  // requesting client instead of piling up in the daemon-wide log.
  Diagnostics Local;
  if (!runtime::Planner::validateSpec(Spec, Local)) {
    sendError(C, RequestId, Status::BadSpec, Local.dump());
    return nullptr;
  }
  runtime::PlanError PErr = runtime::PlanError::None;
  auto P = Registry.acquire(Spec, DL, &PErr);
  if (!P) {
    if (PErr == runtime::PlanError::DeadlineExceeded) {
      sendError(C, RequestId, Status::DeadlineExceeded,
                "deadline expired while planning '" + Spec.key() + "'");
    } else {
      sendError(C, RequestId, Status::PlanFailed,
                "planning failed server-side for '" + Spec.key() +
                    "' (daemon log has diagnostics)");
    }
    return nullptr;
  }
  return P;
}

void Server::serve(Conn &C, Frame &F, const support::Deadline &DL,
                   std::uint64_t AdmitNs) {
  // Releases the admission however the handler exits. The last job of a
  // connection wakes its reader if it is waiting to tear down.
  struct Release {
    std::atomic<int> &Global;
    Conn &C;
    ~Release() {
      telemetry::SpldInflight.set(
          Global.fetch_sub(1, std::memory_order_relaxed) - 1);
      std::lock_guard<std::mutex> Lock(C.M);
      if (C.Inflight.fetch_sub(1, std::memory_order_relaxed) == 1)
        C.Idle.notify_all();
    }
  } Guard{GlobalInflight, C};
  if (AdmitNs)
    telemetry::SpldQueueNs.record(telemetry::traceNowNs() - AdmitNs);
  // Aged out in the pool queue: answer typed before any stage timer, so an
  // expired request never consumes (or shows up as) plan or execute time
  // (the overload bench asserts the spld.execute_ns sample count stays
  // flat during a deadline storm).
  if (DL.expired()) {
    sendError(C, F.RequestId, Status::DeadlineExceeded,
              "deadline expired while queued for a worker");
    return;
  }
  if (F.Type == MsgType::PlanReq)
    handlePlan(C, F, DL);
  else
    handleExecute(C, F, DL);
}

void Server::handlePlan(Conn &C, Frame &F, const support::Deadline &DL) {
  telemetry::StageTimer T(telemetry::SpldPlanNs);

  PlanRequest Req;
  const bool Decoded = [&] {
    telemetry::StageTimer D(telemetry::SpldDecodeNs);
    return PlanRequest::decode(F.Body.data(), F.Body.size(), Req);
  }();
  C.giveSpare(C.SpareReq, std::move(F.Body));
  if (!Decoded) {
    sendError(C, F.RequestId, Status::BadRequest,
              "malformed plan request body");
    return;
  }
  auto P = acquirePlan(C, F.RequestId, Req.Spec, DL);
  if (!P)
    return;
  count(&Stats::Plans);
  telemetry::StageTimer R(telemetry::SpldReplyNs);
  PlanResponse Resp;
  Resp.Key = P->spec().key();
  Resp.Backend = runtime::backendName(P->backend());
  Resp.VectorLen = P->vectorLen();
  Resp.Cost = P->searchCost();
  Resp.Fallback = P->usedFallback();
  Resp.FallbackReason = P->fallbackReason();
  Resp.FormulaText = P->formulaText();
  sendFrame(C, MsgType::PlanResp, F.RequestId, Resp.encode());
}

void Server::handleExecute(Conn &C, Frame &F, const support::Deadline &DL) {
  telemetry::StageTimer T(telemetry::SpldExecuteNs);

  // X is a view into the received body, never a copy. FrameBuffer bodies
  // and payload offsets are both kPayloadAlign-aligned; the check guards
  // that invariant.
  ExecuteRequestPrefix Req;
  const std::size_t Off = [&] {
    telemetry::StageTimer D(telemetry::SpldDecodeNs);
    return Req.decodePrefix(F.Body.data(), F.Body.size(), F.Body.size());
  }();
  const auto *X = reinterpret_cast<const double *>(F.Body.data() + Off);
  const std::uint64_t N = (F.Body.size() - Off) / 8;
  if (!Off || reinterpret_cast<std::uintptr_t>(X) % alignof(double)) {
    sendError(C, F.RequestId, Status::BadRequest,
              "malformed execute request body");
    return;
  }
  if (Req.Count < 1) {
    sendError(C, F.RequestId, Status::BadRequest,
              "execute count must be >= 1");
    return;
  }
  auto P = acquirePlan(C, F.RequestId, Req.Spec, DL);
  if (!P)
    return;
  // Count is untrusted wire input: `Count * Len` can overflow int64 and
  // wrap to match a short payload, so derive the batch count from the
  // actual payload size instead and require the client's Count to agree.
  const std::int64_t Len = P->vectorLen();
  if (Len <= 0 || N % Len != 0 ||
      Req.Count != static_cast<std::int64_t>(N / Len)) {
    sendError(C, F.RequestId, Status::BadRequest,
              "execute payload holds " + std::to_string(N) +
                  " doubles; " + std::to_string(Req.Count) + " x " +
                  std::to_string(Len) + " expected");
    return;
  }
  int Threads = Req.Threads < 1 ? 1
                : Req.Threads > Opts.MaxExecThreads ? Opts.MaxExecThreads
                                                    : Req.Threads;
  // The response body is the prefix, then Y written in place by the batch.
  FrameBuffer Out = C.takeSpare(C.SpareResp);
  Out.clear();
  Out.resize(kExecuteRespPrefixBytes + N * 8);
  runtime::BatchLayout BL;
  BL.HowMany = Req.Count;
  runtime::ExecStatus St = P->executeBatch(
      reinterpret_cast<double *>(Out.data() + kExecuteRespPrefixBytes), X, BL,
      DL, Threads);
  C.giveSpare(C.SpareReq, std::move(F.Body));
  if (St == runtime::ExecStatus::DeadlineExceeded) {
    // Partial batches are never shipped: the client asked for Count
    // results and gets a typed error instead of silently truncated data.
    sendError(C, F.RequestId, Status::DeadlineExceeded,
              "deadline expired mid-batch after planning '" +
                  P->spec().key() + "'");
  } else {
    count(&Stats::Executes);
    telemetry::StageTimer R(telemetry::SpldReplyNs);
    const std::vector<std::uint8_t> Prefix =
        ExecuteResponsePrefix{Req.Count, Len}.encodePrefix(N);
    std::memcpy(Out.data(), Prefix.data(), kExecuteRespPrefixBytes);
    sendFrame(C, MsgType::ExecuteResp, F.RequestId, {Out.data(), Out.size()});
  }
  C.giveSpare(C.SpareResp, std::move(Out));
}

void Server::handleStats(Conn &C, std::uint32_t RequestId) {
  telemetry::SpldStatsRequests.add();
  Stats Snap = stats();
  auto RS = Registry.stats();
  std::ostringstream SS;
  SS << "{\"server\":{"
     << "\"socket\":\"" << jsonEscape(Opts.SocketPath) << "\","
     << "\"connections\":" << Snap.Connections << ","
     << "\"requests\":" << Snap.Requests << ","
     << "\"plans\":" << Snap.Plans << ","
     << "\"executes\":" << Snap.Executes << ","
     << "\"rejected_busy\":" << Snap.RejectedBusy << ","
     << "\"rejected_too_large\":" << Snap.RejectedTooLarge << ","
     << "\"rejected_deadline\":" << Snap.RejectedDeadline << ","
     << "\"errors\":" << Snap.Errors << ","
     << "\"breaker\":\"" << support::compileBreaker().stateName() << "\","
     << "\"registry\":{\"plans\":" << Registry.size()
     << ",\"hits\":" << RS.Hits << ",\"misses\":" << RS.Misses
     << ",\"waits\":" << RS.Waits << "},"
     << "\"wisdom\":\"" << jsonEscape(ThePlanner.wisdom().summary()) << "\""
     << "},\"metrics\":" << telemetry::metricsJson() << "}";
  StatsResponse Resp;
  Resp.Json = SS.str();
  sendFrame(C, MsgType::StatsResp, RequestId, Resp.encode());
}

void Server::connLoop(std::shared_ptr<Conn> C) {
  while (true) {
    Frame F;
    FrameHeader H;
    IoStatus St = readHeader(C->Fd, H);
    if (St == IoStatus::Ok) {
      telemetry::StageTimer T(telemetry::SpldReadNs);
      F.Type = H.Type;
      F.RequestId = H.RequestId;
      F.Body = C->takeSpare(C->SpareReq);
      St = readBody(C->Fd, H, Opts.MaxFrameBytes, F.Body);
    }
    if (St == IoStatus::Closed || St == IoStatus::Error)
      break;
    if (St == IoStatus::BadFrame) {
      // Unsynchronizable stream: answer (best effort) and hang up.
      sendError(*C, 0, Status::Protocol,
                "bad frame header (magic/version mismatch; this daemon "
                "speaks protocol v" +
                    std::to_string(kProtocolVersion) + " only)");
      break;
    }
    telemetry::SpldRequests.add();
    count(&Stats::Requests);
    if (St == IoStatus::TooBig) {
      sendError(*C, F.RequestId, Status::TooLarge,
                "frame body exceeds the server cap of " +
                    std::to_string(Opts.MaxFrameBytes) + " bytes");
      continue;
    }
    switch (F.Type) {
    case MsgType::PingReq:
      sendFrame(*C, MsgType::PingResp, F.RequestId);
      break;
    case MsgType::StatsReq:
      // Answered inline on the reader thread: a scrape must succeed even
      // when every pool worker is busy planning.
      handleStats(*C, F.RequestId);
      break;
    case MsgType::ShutdownReq:
      // Drain first, so a client holding the reply knows the daemon is
      // already refusing new work.
      requestShutdown();
      sendFrame(*C, MsgType::ShutdownResp, F.RequestId);
      break;
    case MsgType::PlanReq:
    case MsgType::ExecuteReq: {
      if (!admit(*C, F.RequestId))
        break;
      (F.Type == MsgType::PlanReq ? telemetry::SpldPlanRequests
                                  : telemetry::SpldExecuteRequests)
          .add();
      // The deadline clock starts here, on the reader thread, so time
      // spent queued for a pool worker counts against the budget. That is
      // why DeadlineMs leads the body: it is read without a full decode (a
      // body too short for it reads 0 here and fails the decode later).
      const std::uint32_t Ms = WireReader(F.Body.data(), F.Body.size()).u32();
      support::Deadline DL =
          support::Deadline::afterMs(Ms ? Ms : Opts.DefaultDeadlineMs);
      std::uint64_t AdmitNs =
          telemetry::metricsEnabled() ? telemetry::traceNowNs() : 0;
      Pool->run([this, C, F = std::move(F), DL, AdmitNs]() mutable {
        serve(*C, F, DL, AdmitNs);
      });
      break;
    }
    default:
      sendError(*C, F.RequestId, Status::BadRequest,
                "unexpected frame type " +
                    std::to_string(static_cast<unsigned>(F.Type)));
      break;
    }
    if (F.Body.capacity())
      C->giveSpare(C->SpareReq, std::move(F.Body));
  }
  // Let admitted jobs finish writing before the fd can be closed by the
  // reaper; they hold the Conn alive via shared_ptr but not the fd's
  // usability past Done. The last one notifies Idle.
  {
    std::unique_lock<std::mutex> Lock(C->M);
    C->Idle.wait(Lock, [&] { return C->Inflight.load() == 0; });
  }
  // Signal EOF to the peer now; the reaper may not run until the next
  // accept, and close() must stay with whoever joins this thread (fd-reuse
  // safety). shutdown() keeps the fd number allocated.
  ::shutdown(C->Fd, SHUT_RDWR);
  telemetry::SpldActiveConnections.set(--LiveConns);
  C->Done.store(true);
}
