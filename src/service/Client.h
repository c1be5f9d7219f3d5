//===- service/Client.h - spld client library -------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synchronous client for the spld plan-serving daemon: one connection, one
/// request in flight at a time (the protocol allows pipelining; this client
/// keeps the common case simple — `splrun --connect` and the many-client
/// bench each run one Client per thread). Every call returns false/nullopt
/// on failure and records a typed Status plus a message, so callers can
/// distinguish a BUSY worth retrying from a hard protocol error. Not
/// thread-safe; use one Client per thread.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SERVICE_CLIENT_H
#define SPL_SERVICE_CLIENT_H

#include "service/Protocol.h"
#include "service/Socket.h"
#include "support/Deadline.h"

#include <optional>
#include <span>
#include <string>
#include <vector>

namespace spl {
namespace service {

/// A connected spld client.
class Client {
public:
  Client() = default;
  ~Client() { disconnect(); }

  Client(const Client &) = delete;
  Client &operator=(const Client &) = delete;

  /// Connects to the daemon socket. False (with lastError set) on failure.
  bool connect(const std::string &SocketPath);

  /// Closes the connection (idempotent).
  void disconnect();

  bool connected() const { return Fd >= 0; }

  /// Sets the end-to-end deadline subsequent requests run under. Each
  /// request carries the budget still remaining when it is sent (the
  /// DeadlineMs field), so the server stops working for this client the
  /// moment the budget is gone — including time the request spent queued.
  /// The retry helpers also stop retrying once the budget is spent. The
  /// default (unbounded) sends DeadlineMs = 0.
  void setDeadline(support::Deadline D) { DL = std::move(D); }
  const support::Deadline &deadline() const { return DL; }

  /// Round-trips a plan request.
  std::optional<PlanResponse> plan(const runtime::PlanSpec &Spec);

  /// Round-trips an execute request: \p Count vectors of \p VectorLen
  /// doubles from \p X into \p Y (caller-sized). VectorLen must match the
  /// plan's (a plan() call reports it). X is sent and Y received in place,
  /// without staging copies. A response whose Count, VectorLen or length
  /// disagrees with the call is a PROTOCOL failure that disconnects and
  /// leaves Y untouched.
  bool execute(const runtime::PlanSpec &Spec, double *Y, const double *X,
               std::int64_t Count, std::int64_t VectorLen, int Threads = 1);

  /// Like plan()/execute() but retrying typed BUSY rejections up to
  /// \p Retries times with exponential backoff plus jitter (1 ms doubling
  /// to a 64 ms cap, each sleep scattered over [half, full] so a rejected
  /// thundering herd does not re-arrive in lockstep). Retrying stops early
  /// — with the final failure recorded — when the client deadline is
  /// spent; sleeps never overshoot the remaining budget. Any non-BUSY
  /// failure is final.
  std::optional<PlanResponse> planRetryBusy(const runtime::PlanSpec &Spec,
                                            int Retries = 64);
  bool executeRetryBusy(const runtime::PlanSpec &Spec, double *Y,
                        const double *X, std::int64_t Count,
                        std::int64_t VectorLen, int Threads = 1,
                        int Retries = 64);

  /// Fetches the daemon's stats JSON (server identity + telemetry
  /// registry).
  std::optional<std::string> stats();

  /// Liveness probe.
  bool ping();

  /// Asks the daemon to drain and exit. The connection is useless after a
  /// true return.
  bool shutdownServer();

  /// The status/message of the most recent failure (Status::Ok after a
  /// success).
  Status lastStatus() const { return LastStatus; }
  const std::string &lastError() const { return LastError; }

private:
  /// Sends a request frame whose body is \p Prefix then \p PayloadLen bytes
  /// at \p Payload, and reads the response header, which must answer it
  /// with \p Expected. A typed ErrorResp is read and recorded (the
  /// connection survives); any other failure disconnects.
  bool exchange(MsgType Type, std::span<const std::uint8_t> Prefix,
                const void *Payload, std::size_t PayloadLen, MsgType Expected,
                FrameHeader &H);

  /// exchange() with a plain body; the whole response body decodes as
  /// \p Resp.
  template <class Resp>
  std::optional<Resp> call(MsgType Type, std::span<const std::uint8_t> Body,
                           MsgType Expected);

  /// Records a PROTOCOL failure and drops the connection, whose stream can
  /// no longer be trusted. Always false.
  bool broken(std::string Message);

  /// Records the outcome lastStatus()/lastError() report.
  void record(Status S, std::string Message);

  /// Calls \p Call until it succeeds or fails other than BUSY, as
  /// planRetryBusy documents.
  template <class Fn> auto retryBusy(Fn Call, int Retries) -> decltype(Call());

  /// Sleeps one backoff step for retry \p Attempt, bounded by the
  /// remaining deadline budget. False when the budget is already spent.
  bool backoff(int Attempt);

  /// The deadline field for a request sent right now: the remaining
  /// budget in whole milliseconds (at least 1 while any budget remains),
  /// or 0 (unbounded) when no deadline is set.
  std::uint32_t wireDeadlineMs() const;

  int Fd = -1;
  std::uint32_t NextId = 1;
  Status LastStatus = Status::Ok;
  std::string LastError;
  support::Deadline DL;
};

} // namespace service
} // namespace spl

#endif // SPL_SERVICE_CLIENT_H
