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

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <sys/socket.h>
#include <unistd.h>

using namespace spl;
using namespace spl::service;

namespace {

/// Minimal JSON string escaping (paths and diagnostics in stats output).
std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

/// The deadline field of a v3 plan/execute request without decoding the
/// whole body: DeadlineMs is by design the first u32, so the reader thread
/// can start the deadline clock at frame-read time (queue time must count
/// against the budget). v2 frames and truncated bodies read as 0
/// (unbounded here; a truncated v3 body still fails full decode later).
std::uint32_t peekDeadlineMs(const Frame &F) {
  if (F.Version < 3 || F.Body.size() < 4)
    return 0;
  return static_cast<std::uint32_t>(F.Body[0]) |
         static_cast<std::uint32_t>(F.Body[1]) << 8 |
         static_cast<std::uint32_t>(F.Body[2]) << 16 |
         static_cast<std::uint32_t>(F.Body[3]) << 24;
}

/// Decrements the admission counters however a handler exits.
struct AdmissionGuard {
  std::atomic<int> &Global;
  std::atomic<int> &PerConn;
  telemetry::Gauge &InflightGauge;
  ~AdmissionGuard() {
    Global.fetch_sub(1, std::memory_order_relaxed);
    PerConn.fetch_sub(1, std::memory_order_relaxed);
    InflightGauge.add(-1);
  }
};

} // namespace

Server::Server(ServerOptions OptsIn)
    : Opts(std::move(OptsIn)), ThePlanner(Diags, Opts.Planner),
      Registry(ThePlanner) {
  // Pre-register the spld instrument set so a stats scrape of an idle
  // daemon still shows the full catalogue as zeros.
  telemetry::counter("spld.connections");
  telemetry::counter("spld.requests");
  telemetry::counter("spld.plan_requests");
  telemetry::counter("spld.execute_requests");
  telemetry::counter("spld.stats_requests");
  telemetry::counter("spld.rejected.busy");
  telemetry::counter("spld.rejected.too_large");
  telemetry::counter("spld.deadline_exceeded");
  telemetry::counter("spld.errors");
  telemetry::gauge("spld.inflight");
  telemetry::gauge("spld.active_connections");
  telemetry::histogram("spld.plan_ns");
  telemetry::histogram("spld.execute_ns");
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

  std::vector<std::shared_ptr<Conn>> Remaining;
  {
    std::lock_guard<std::mutex> Lock(ConnsM);
    Remaining.swap(Conns);
  }
  for (auto &C : Remaining)
    ::shutdown(C->Fd, SHUT_RD); // In-flight responses still go out.
  for (auto &C : Remaining) {
    if (C->Reader.joinable())
      C->Reader.join();
    ::close(C->Fd);
  }
  if (Pool)
    Pool->wait();
  ThePlanner.saveWisdom();
  ::unlink(Opts.SocketPath.c_str());
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> Lock(StatsM);
  return S;
}

void Server::reapFinishedConns() {
  std::vector<std::shared_ptr<Conn>> Dead;
  {
    std::lock_guard<std::mutex> Lock(ConnsM);
    for (auto It = Conns.begin(); It != Conns.end();) {
      if ((*It)->Done.load()) {
        Dead.push_back(*It);
        It = Conns.erase(It);
      } else {
        ++It;
      }
    }
  }
  for (auto &C : Dead) {
    if (C->Reader.joinable())
      C->Reader.join();
    ::close(C->Fd);
  }
}

void Server::acceptLoop() {
  static telemetry::Counter &ConnsTotal =
      telemetry::counter("spld.connections");
  static telemetry::Gauge &Active =
      telemetry::gauge("spld.active_connections");
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
    reapFinishedConns();
    auto C = std::make_shared<Conn>();
    C->Fd = Fd;
    {
      std::lock_guard<std::mutex> Lock(ConnsM);
      C->Id = NextConnId++;
      Conns.push_back(C);
    }
    ConnsTotal.add();
    Active.add(1);
    {
      std::lock_guard<std::mutex> Lock(StatsM);
      ++S.Connections;
    }
    C->Reader = std::thread([this, C] { connLoop(C); });
  }
}

bool Server::sendFrame(Conn &C, MsgType Type, std::uint32_t RequestId,
                       const std::vector<std::uint8_t> &Body,
                       std::uint16_t Version) {
  std::lock_guard<std::mutex> Lock(C.WriteM);
  return writeFrame(C.Fd, Type, RequestId, Body, Version);
}

void Server::sendError(Conn &C, std::uint32_t RequestId, Status Code,
                       const std::string &Message, std::uint16_t Version) {
  static telemetry::Counter &Errors = telemetry::counter("spld.errors");
  static telemetry::Counter &Busy = telemetry::counter("spld.rejected.busy");
  static telemetry::Counter &TooLarge =
      telemetry::counter("spld.rejected.too_large");
  static telemetry::Counter &DeadlineHit =
      telemetry::counter("spld.deadline_exceeded");
  if (Code == Status::Busy)
    Busy.add();
  else if (Code == Status::TooLarge)
    TooLarge.add();
  else if (Code == Status::DeadlineExceeded)
    DeadlineHit.add();
  else
    Errors.add();
  {
    std::lock_guard<std::mutex> Lock(StatsM);
    if (Code == Status::Busy)
      ++S.RejectedBusy;
    else if (Code == Status::TooLarge)
      ++S.RejectedTooLarge;
    else if (Code == Status::DeadlineExceeded)
      ++S.RejectedDeadline;
    else
      ++S.Errors;
  }
  ErrorBody E;
  E.Code = Code;
  E.Message = Message;
  sendFrame(C, MsgType::ErrorResp, RequestId, E.encode(), Version);
}

bool Server::admit(Conn &C, std::uint32_t RequestId, std::uint16_t Version) {
  static telemetry::Gauge &Inflight = telemetry::gauge("spld.inflight");
  if (ShutdownFlag.load()) {
    sendError(C, RequestId, Status::ShuttingDown,
              "daemon is draining; no new work accepted", Version);
    return false;
  }
  if (GlobalInflight.fetch_add(1, std::memory_order_relaxed) >=
      Opts.MaxInflight) {
    GlobalInflight.fetch_sub(1, std::memory_order_relaxed);
    sendError(C, RequestId, Status::Busy,
              "server queue is full (" + std::to_string(Opts.MaxInflight) +
                  " in flight); retry",
              Version);
    return false;
  }
  if (C.Inflight.fetch_add(1, std::memory_order_relaxed) >=
      Opts.PerClientInflight) {
    C.Inflight.fetch_sub(1, std::memory_order_relaxed);
    GlobalInflight.fetch_sub(1, std::memory_order_relaxed);
    sendError(C, RequestId, Status::Busy,
              "per-client quota exceeded (" +
                  std::to_string(Opts.PerClientInflight) + " in flight)",
              Version);
    return false;
  }
  Inflight.add(1);
  return true;
}

std::shared_ptr<runtime::Plan>
Server::acquirePlan(Conn &C, std::uint32_t RequestId, const WireSpec &WS,
                    const support::Deadline &DL, std::uint16_t Version) {
  // The admission cap applies to the total transform size: the shape
  // product for N-D requests (v4), WS.Size otherwise. The product is
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
                  std::to_string(Opts.MaxTransformSize),
              Version);
    return nullptr;
  }
  bool SpecOK = false;
  runtime::PlanSpec Spec = WS.toSpec(SpecOK);
  if (!SpecOK) {
    runtime::Backend B;
    sendError(C, RequestId, Status::BadRequest,
              !runtime::parseBackend(WS.Backend, B)
                  ? "unknown backend '" + WS.Backend + "'"
                  : "unknown codegen mode '" + WS.Codegen + "'",
              Version);
    return nullptr;
  }
  if (Opts.Codegen != runtime::CodegenMode::Auto)
    Spec.Codegen = Opts.Codegen; // Server policy overrides the request.
  // Validate with a request-local engine so the reason travels back to the
  // requesting client instead of piling up in the daemon-wide log.
  Diagnostics Local;
  if (!runtime::Planner::validateSpec(Spec, Local)) {
    sendError(C, RequestId, Status::BadSpec, Local.dump(), Version);
    return nullptr;
  }
  runtime::PlanError PErr = runtime::PlanError::None;
  auto P = Registry.acquire(Spec, DL, &PErr);
  if (!P) {
    if (PErr == runtime::PlanError::DeadlineExceeded) {
      sendError(C, RequestId, Status::DeadlineExceeded,
                "deadline expired while planning '" + Spec.key() + "'",
                Version);
    } else {
      sendError(C, RequestId, Status::PlanFailed,
                "planning failed server-side for '" + Spec.key() +
                    "' (daemon log has diagnostics)",
                Version);
    }
    return nullptr;
  }
  return P;
}

void Server::handlePlan(std::shared_ptr<Conn> C, Frame F,
                        support::Deadline DL) {
  static telemetry::Gauge &Inflight = telemetry::gauge("spld.inflight");
  static telemetry::Histogram &PlanNs = telemetry::histogram("spld.plan_ns");
  AdmissionGuard Guard{GlobalInflight, C->Inflight, Inflight};

  // Aged out in the pool queue: answer typed without starting the stage
  // timer — an expired request must not consume (or be counted as) plan
  // time.
  if (DL.expired()) {
    sendError(*C, F.RequestId, Status::DeadlineExceeded,
              "deadline expired while queued for a worker", F.Version);
    return;
  }
  telemetry::StageTimer T("spld.plan", &PlanNs);

  PlanRequest Req;
  if (!PlanRequest::decode(F.Body.data(), F.Body.size(), Req, F.Version)) {
    sendError(*C, F.RequestId, Status::BadRequest,
              "malformed plan request body", F.Version);
    return;
  }
  auto P = acquirePlan(*C, F.RequestId, Req.Spec, DL, F.Version);
  if (!P)
    return;
  {
    std::lock_guard<std::mutex> Lock(StatsM);
    ++S.Plans;
  }
  PlanResponse Resp;
  Resp.Key = P->spec().key();
  Resp.Backend = runtime::backendName(P->backend());
  Resp.VectorLen = P->vectorLen();
  Resp.Cost = P->searchCost();
  Resp.Fallback = P->usedFallback();
  Resp.FallbackReason = P->fallbackReason();
  Resp.FormulaText = P->formulaText();
  sendFrame(*C, MsgType::PlanResp, F.RequestId, Resp.encode(), F.Version);
}

void Server::handleExecute(std::shared_ptr<Conn> C, Frame F,
                           support::Deadline DL) {
  static telemetry::Gauge &Inflight = telemetry::gauge("spld.inflight");
  static telemetry::Histogram &ExecNs =
      telemetry::histogram("spld.execute_ns");
  AdmissionGuard Guard{GlobalInflight, C->Inflight, Inflight};

  // Aged out in the pool queue: reject before the stage timer so expired
  // requests never show up as execute time (the overload bench asserts
  // the spld.execute_ns sample count stays flat during a deadline storm).
  if (DL.expired()) {
    sendError(*C, F.RequestId, Status::DeadlineExceeded,
              "deadline expired while queued for a worker", F.Version);
    return;
  }
  telemetry::StageTimer T("spld.execute", &ExecNs);

  ExecuteRequest Req;
  if (!ExecuteRequest::decode(F.Body.data(), F.Body.size(), Req, F.Version)) {
    sendError(*C, F.RequestId, Status::BadRequest,
              "malformed execute request body", F.Version);
    return;
  }
  if (Req.Count < 1) {
    sendError(*C, F.RequestId, Status::BadRequest,
              "execute count must be >= 1", F.Version);
    return;
  }
  auto P = acquirePlan(*C, F.RequestId, Req.Spec, DL, F.Version);
  if (!P)
    return;
  // Count is untrusted wire input: `Count * Len` can overflow int64 and
  // wrap to match a short payload, so derive the batch count from the
  // actual payload size instead and require the client's Count to agree.
  const std::int64_t Len = P->vectorLen();
  if (Len <= 0 || Req.Data.size() % static_cast<std::size_t>(Len) != 0 ||
      Req.Count !=
          static_cast<std::int64_t>(Req.Data.size() /
                                    static_cast<std::size_t>(Len))) {
    sendError(*C, F.RequestId, Status::BadRequest,
              "execute payload holds " + std::to_string(Req.Data.size()) +
                  " doubles; " + std::to_string(Req.Count) + " x " +
                  std::to_string(Len) + " expected",
              F.Version);
    return;
  }
  int Threads = Req.Threads < 1 ? 1
                : Req.Threads > Opts.MaxExecThreads ? Opts.MaxExecThreads
                                                    : Req.Threads;
  ExecuteResponse Resp;
  Resp.Count = Req.Count;
  Resp.VectorLen = Len;
  Resp.Data.resize(Req.Data.size());
  runtime::BatchLayout BL;
  BL.HowMany = Req.Count;
  if (P->executeBatch(Resp.Data.data(), Req.Data.data(), BL, DL, Threads) ==
      runtime::ExecStatus::DeadlineExceeded) {
    // Partial batches are never shipped: the client asked for Count
    // results and gets a typed error instead of silently truncated data.
    sendError(*C, F.RequestId, Status::DeadlineExceeded,
              "deadline expired mid-batch after planning '" +
                  P->spec().key() + "'",
              F.Version);
    return;
  }
  {
    std::lock_guard<std::mutex> Lock(StatsM);
    ++S.Executes;
  }
  sendFrame(*C, MsgType::ExecuteResp, F.RequestId, Resp.encode(), F.Version);
}

void Server::handleStats(Conn &C, std::uint32_t RequestId,
                         std::uint16_t Version) {
  static telemetry::Counter &StatsReqs =
      telemetry::counter("spld.stats_requests");
  StatsReqs.add();
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
  sendFrame(C, MsgType::StatsResp, RequestId, Resp.encode(), Version);
}

void Server::connLoop(std::shared_ptr<Conn> C) {
  static telemetry::Counter &Requests = telemetry::counter("spld.requests");
  static telemetry::Gauge &Active =
      telemetry::gauge("spld.active_connections");
  while (true) {
    Frame F;
    IoStatus St = readFrame(C->Fd, Opts.MaxFrameBytes, F);
    if (St == IoStatus::Closed || St == IoStatus::Error)
      break;
    if (St == IoStatus::BadFrame) {
      // Unsynchronizable stream: answer (best effort) and hang up.
      sendError(*C, 0, Status::Protocol,
                "bad frame header (magic/version mismatch)");
      break;
    }
    Requests.add();
    {
      std::lock_guard<std::mutex> Lock(StatsM);
      ++S.Requests;
    }
    if (St == IoStatus::TooBig) {
      sendError(*C, F.RequestId, Status::TooLarge,
                "frame body exceeds the server cap of " +
                    std::to_string(Opts.MaxFrameBytes) + " bytes");
      continue;
    }
    switch (F.Type) {
    case MsgType::PingReq:
      sendFrame(*C, MsgType::PingResp, F.RequestId, {}, F.Version);
      break;
    case MsgType::StatsReq:
      // Answered inline on the reader thread: a scrape must succeed even
      // when every pool worker is busy planning.
      handleStats(*C, F.RequestId, F.Version);
      break;
    case MsgType::ShutdownReq:
      sendFrame(*C, MsgType::ShutdownResp, F.RequestId, {}, F.Version);
      requestShutdown();
      break;
    case MsgType::PlanReq:
      if (admit(*C, F.RequestId, F.Version)) {
        static telemetry::Counter &PlanReqs =
            telemetry::counter("spld.plan_requests");
        PlanReqs.add();
        // The deadline clock starts here, on the reader thread, so time
        // spent queued for a pool worker counts against the budget.
        support::Deadline DL = support::Deadline::afterMs(
            peekDeadlineMs(F) ? peekDeadlineMs(F) : Opts.DefaultDeadlineMs);
        Pool->run([this, C, F = std::move(F), DL]() mutable {
          handlePlan(C, std::move(F), DL);
        });
      }
      break;
    case MsgType::ExecuteReq:
      if (admit(*C, F.RequestId, F.Version)) {
        static telemetry::Counter &ExecReqs =
            telemetry::counter("spld.execute_requests");
        ExecReqs.add();
        support::Deadline DL = support::Deadline::afterMs(
            peekDeadlineMs(F) ? peekDeadlineMs(F) : Opts.DefaultDeadlineMs);
        Pool->run([this, C, F = std::move(F), DL]() mutable {
          handleExecute(C, std::move(F), DL);
        });
      }
      break;
    default:
      sendError(*C, F.RequestId, Status::BadRequest,
                "unexpected frame type " +
                    std::to_string(static_cast<unsigned>(F.Type)),
                F.Version);
      break;
    }
  }
  // Let admitted jobs finish writing before the fd can be closed by the
  // reaper; they hold the Conn alive via shared_ptr but not the fd's
  // usability past Done.
  while (C->Inflight.load(std::memory_order_relaxed) != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  // Signal EOF to the peer now; the reaper may not run until the next
  // accept, and close() must stay with whoever joins this thread (fd-reuse
  // safety). shutdown() keeps the fd number allocated.
  ::shutdown(C->Fd, SHUT_RDWR);
  Active.add(-1);
  C->Done.store(true);
}
