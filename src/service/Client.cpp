//===- service/Client.cpp - spld client library -------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"

#include "service/Socket.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <random>
#include <thread>

#include <unistd.h>

using namespace spl;
using namespace spl::service;

bool Client::connect(const std::string &SocketPath) {
  disconnect();
  std::string Err;
  Fd = connectUnix(SocketPath, Err);
  record(Fd < 0 ? Status::Protocol : Status::Ok, Err);
  return Fd >= 0;
}

void Client::disconnect() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

void Client::record(Status S, std::string Message) {
  LastStatus = S;
  LastError = std::move(Message);
}

std::uint32_t Client::wireDeadlineMs() const {
  if (DL.unbounded())
    return 0;
  // Round up to at least 1 ms while any budget remains: a 0 on the wire
  // would mean "unbounded", the opposite of a nearly spent deadline.
  std::int64_t Ms = DL.remainingMs();
  if (Ms < 1)
    Ms = 1;
  constexpr std::int64_t Cap = std::numeric_limits<std::uint32_t>::max();
  return static_cast<std::uint32_t>(std::min(Ms, Cap));
}

bool Client::backoff(int Attempt) {
  // Exponential with full doubling capped at 64 ms, then jittered into
  // [half, full] so simultaneously rejected clients spread out instead of
  // re-arriving as the same thundering herd that got them rejected.
  static thread_local std::minstd_rand Rng(
      std::random_device{}());
  const double CapMs = static_cast<double>(1 << std::min(Attempt, 6));
  std::uniform_real_distribution<double> Dist(CapMs * 0.5, CapMs);
  double SleepMs = Dist(Rng);
  const double RemainingMs = DL.remainingSeconds() * 1000.0;
  if (RemainingMs <= 0)
    return false; // Budget spent; the caller reports the last failure.
  SleepMs = std::min(SleepMs, RemainingMs);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      SleepMs));
  return !DL.expired();
}

bool Client::broken(std::string Message) {
  record(Status::Protocol, std::move(Message));
  disconnect();
  return false;
}

bool Client::exchange(MsgType Type, std::span<const std::uint8_t> Prefix,
                      const void *Payload, std::size_t PayloadLen,
                      MsgType Expected, FrameHeader &H) {
  if (Fd < 0) {
    record(Status::Protocol, "not connected");
    return false;
  }
  const std::uint32_t Id = NextId++;
  if (!writeFrame(Fd, Type, Id, Prefix, Payload, PayloadLen))
    return broken("send failed (daemon gone?)");
  IoStatus St = readHeader(Fd, H);
  if (St != IoStatus::Ok)
    return broken(St == IoStatus::Closed ? "connection closed by daemon"
                                         : "response read failed");
  if (H.RequestId != Id)
    return broken("response id mismatch (pipelining misuse?)");
  if (H.Type == MsgType::ErrorResp) {
    FrameBuffer Body;
    ErrorBody E;
    if (readBody(Fd, H, kDefaultMaxFrameBytes, Body) != IoStatus::Ok ||
        !ErrorBody::decode(Body.data(), Body.size(), E))
      return broken("undecodable error response");
    record(E.Code, E.Message);
    return false;
  }
  if (H.Type != Expected)
    return broken("unexpected response type");
  record(Status::Ok, "");
  return true;
}

template <class Resp>
std::optional<Resp> Client::call(MsgType Type,
                                 std::span<const std::uint8_t> Body,
                                 MsgType Expected) {
  FrameHeader H;
  FrameBuffer B;
  Resp R;
  if (!exchange(Type, Body, nullptr, 0, Expected, H))
    return std::nullopt;
  if (readBody(Fd, H, kDefaultMaxFrameBytes, B) != IoStatus::Ok ||
      !Resp::decode(B.data(), B.size(), R)) {
    broken("undecodable response");
    return std::nullopt;
  }
  return R;
}

std::optional<PlanResponse> Client::plan(const runtime::PlanSpec &Spec) {
  const PlanRequest Req{wireDeadlineMs(), WireSpec::fromSpec(Spec)};
  return call<PlanResponse>(MsgType::PlanReq, Req.encode(), MsgType::PlanResp);
}

bool Client::execute(const runtime::PlanSpec &Spec, double *Y, const double *X,
                     std::int64_t Count, std::int64_t VectorLen, int Threads) {
  const ExecuteRequestPrefix Req{wireDeadlineMs(), WireSpec::fromSpec(Spec),
                                 Count, Threads};
  const auto N = static_cast<std::uint64_t>(Count * VectorLen);
  FrameHeader H;
  if (!exchange(MsgType::ExecuteReq, Req.encodePrefix(N), X, N * 8,
                MsgType::ExecuteResp, H))
    return false;
  // The shape is checked against the caller's before a byte lands in Y.
  std::uint8_t Head[kExecuteRespPrefixBytes];
  const std::size_t Got = std::min<std::size_t>(H.BodyLen, sizeof(Head));
  if (recvAll(Fd, Head, Got) != IoStatus::Ok)
    return broken("response read failed");
  ExecuteResponsePrefix Resp;
  const std::size_t Off = Resp.decodePrefix(Head, Got, H.BodyLen);
  if (!Off)
    return broken("undecodable execute response");
  if (Resp.Count != Count || Resp.VectorLen != VectorLen ||
      (H.BodyLen - Off) / 8 != N)
    return broken("execute response shape mismatch");
  return recvAll(Fd, Y, N * 8) == IoStatus::Ok ||
         broken("response read failed");
}

template <class Fn>
auto Client::retryBusy(Fn Call, int Retries) -> decltype(Call()) {
  for (int Attempt = 0;; ++Attempt) {
    if (auto R = Call())
      return R;
    // A spent deadline stops early; LastStatus still says Busy then.
    if (LastStatus != Status::Busy || Attempt >= Retries || !backoff(Attempt))
      return {};
  }
}

std::optional<PlanResponse>
Client::planRetryBusy(const runtime::PlanSpec &Spec, int Retries) {
  return retryBusy([&] { return plan(Spec); }, Retries);
}

bool Client::executeRetryBusy(const runtime::PlanSpec &Spec, double *Y,
                              const double *X, std::int64_t Count,
                              std::int64_t VectorLen, int Threads,
                              int Retries) {
  return retryBusy(
      [&] { return execute(Spec, Y, X, Count, VectorLen, Threads); }, Retries);
}

std::optional<std::string> Client::stats() {
  auto R = call<StatsResponse>(MsgType::StatsReq, {}, MsgType::StatsResp);
  return R ? std::optional<std::string>(std::move(R->Json)) : std::nullopt;
}

bool Client::ping() {
  FrameHeader H;
  return exchange(MsgType::PingReq, {}, nullptr, 0, MsgType::PingResp, H) &&
         (H.BodyLen == 0 || broken("ping response has a body"));
}

bool Client::shutdownServer() {
  FrameHeader H;
  return exchange(MsgType::ShutdownReq, {}, nullptr, 0, MsgType::ShutdownResp,
                  H) &&
         (H.BodyLen == 0 || broken("shutdown response has a body"));
}
