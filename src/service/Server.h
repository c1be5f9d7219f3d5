//===- service/Server.h - Multi-tenant plan-serving daemon core -*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The spld daemon core: one long-lived process that serves plan and
/// execute traffic from many clients over a Unix-domain socket, amortizing
/// search, compiled kernels, and wisdom across all of them — the FFTW
/// plan/execute split turned into a service (see docs/SERVICE.md).
///
/// Ownership: the Server holds the single Planner (and through it the
/// wisdom store), the single-flight PlanRegistry, and a support::ThreadPool
/// the planning/execution work runs on. Each accepted connection gets a
/// reader thread; parsed requests are admitted onto the pool under two
/// bounds — a server-wide in-flight cap and a per-client quota — and
/// rejected with typed BUSY instead of queueing without bound. Oversized
/// frames and transforms come back TOO_LARGE. Stats requests are answered
/// inline (never queued) so the metric catalogue stays scrapeable even
/// when the pool is saturated.
///
/// Degradation: the planner's native -> VM -> oracle chain (SPL_FAULT
/// drivable) runs unchanged inside the daemon, so a broken compiler or a
/// crashing kernel demotes plans instead of killing the process.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SERVICE_SERVER_H
#define SPL_SERVICE_SERVER_H

#include "runtime/PlanRegistry.h"
#include "runtime/Planner.h"
#include "service/Protocol.h"
#include "service/Socket.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace spl {
namespace service {

/// Daemon configuration.
struct ServerOptions {
  std::string SocketPath; ///< Required: where to listen.

  /// Request worker threads that plan and execute (0: one per core).
  int Workers = 0;

  /// Server-wide cap on admitted-but-unfinished plan/execute requests.
  /// Admission past this answers BUSY.
  int MaxInflight = 64;

  /// Per-connection cap on in-flight requests (pipelining quota).
  int PerClientInflight = 4;

  /// Largest accepted frame body; bigger requests answer TOO_LARGE.
  std::uint32_t MaxFrameBytes = kDefaultMaxFrameBytes;

  /// Largest accepted transform size (oracle memory is O(N^2); a million-
  /// point plan request from one tenant must not OOM the daemon).
  std::int64_t MaxTransformSize = 1 << 16;

  /// Cap on the batch width (parallelFor runners) a request may ask for.
  int MaxExecThreads = 4;

  /// Server-wide codegen policy (--codegen): Auto honors each request's
  /// own mode; Scalar/Vector override every incoming spec.
  runtime::CodegenMode Codegen = runtime::CodegenMode::Auto;

  /// Deadline applied to requests that carry none of their own
  /// (DeadlineMs = 0). 0 keeps them unbounded. The clock starts when the
  /// request frame is read, so queue time counts: a request that ages out
  /// waiting for a worker is answered DEADLINE_EXCEEDED without consuming
  /// pool time.
  std::int64_t DefaultDeadlineMs = 0;

  /// Consecutive native-compile failures before the process-wide compile
  /// circuit breaker opens (plans degrade straight to the VM tier for the
  /// cooldown). 0 leaves the breaker disabled; spld's CLI defaults to 5.
  int BreakerThreshold = 0;

  /// How long an open breaker stays open before admitting a probe compile.
  std::int64_t BreakerCooldownMs = 5000;

  /// Planner configuration (evaluator, wisdom path, search threads...).
  runtime::PlannerOptions Planner;
};

/// The daemon core. start() spawns the accept loop and returns; stop()
/// drains and joins everything and saves wisdom. Thread-safe throughout.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts serving. False (with a diagnostic on the
  /// engine) when the socket cannot be created.
  bool start();

  /// Stops accepting, drains in-flight work, joins all threads, saves
  /// wisdom, removes the socket file. Idempotent.
  void stop();

  /// True after a client's SHUTDOWN request or an explicit call; spld's
  /// main loop polls this to know when to stop().
  bool shutdownRequested() const { return ShutdownFlag.load(); }

  /// Marks the daemon as draining: new plan/execute admissions answer
  /// SHUTTING_DOWN, shutdownRequested() flips true, and any
  /// waitForShutdownRequest() caller wakes up.
  void requestShutdown();

  /// Blocks until shutdownRequested() (used by tests; spld polls so it can
  /// also react to signals).
  void waitForShutdownRequest();

  const ServerOptions &options() const { return Opts; }
  runtime::Planner &planner() { return ThePlanner; }
  runtime::PlanRegistry &registry() { return Registry; }
  Diagnostics &diagnostics() { return Diags; }

  /// Live served-request counters (also exported as spld.* telemetry).
  struct Stats {
    std::uint64_t Connections = 0;
    std::uint64_t Requests = 0;
    std::uint64_t Plans = 0;
    std::uint64_t Executes = 0;
    std::uint64_t RejectedBusy = 0;
    std::uint64_t RejectedTooLarge = 0;
    std::uint64_t RejectedDeadline = 0; ///< Deadline spent (often in queue).
    std::uint64_t Errors = 0;
  };
  Stats stats() const;

private:
  struct Conn {
    int Fd = -1;
    std::thread Reader;
    std::mutex WriteM;           ///< Serializes response frames.
    std::atomic<int> Inflight{0}; ///< Admitted jobs not yet answered.
    std::atomic<bool> Done{false};
    /// Guards the spares and the Idle wait. Idle is notified when the last
    /// in-flight job finishes, so a closing reader tears down at once.
    std::mutex M;
    std::condition_variable Idle;
    /// At most one idle body per direction: a closed-loop client reuses
    /// them, so steady-state execute traffic allocates no frame bodies.
    FrameBuffer SpareReq, SpareResp;

    FrameBuffer takeSpare(FrameBuffer &Slot) {
      std::lock_guard<std::mutex> Lock(M);
      return std::move(Slot);
    }
    void giveSpare(FrameBuffer &Slot, FrameBuffer &&B) {
      std::lock_guard<std::mutex> Lock(M);
      if (B.capacity() > Slot.capacity())
        Slot = std::move(B);
    }
  };

  void acceptLoop();
  void connLoop(std::shared_ptr<Conn> C);
  void count(std::uint64_t Stats::*Field); ///< ++S.*Field under StatsM.
  /// Joins and closes finished connections, or with \p All every one.
  void reapConns(bool All);

  /// True when the request was admitted (quota + global bounds); on false
  /// the typed rejection was already sent.
  bool admit(Conn &C, std::uint32_t RequestId);

  /// Runs one admitted plan/execute frame on a pool worker. \p DL is the
  /// request's end-to-end deadline, started when the frame was read off the
  /// socket (so pool queue time counts against it); \p AdmitNs is the
  /// admission timestamp behind spld.queue_ns (0 when metrics are off).
  void serve(Conn &C, Frame &F, const support::Deadline &DL,
             std::uint64_t AdmitNs);
  void handlePlan(Conn &C, Frame &F, const support::Deadline &DL);
  void handleExecute(Conn &C, Frame &F, const support::Deadline &DL);
  void handleStats(Conn &C, std::uint32_t RequestId);

  bool sendFrame(Conn &C, MsgType Type, std::uint32_t RequestId,
                 std::span<const std::uint8_t> Body = {});
  void sendError(Conn &C, std::uint32_t RequestId, Status Code,
                 const std::string &Message);

  /// Validates and acquires the plan for a wire spec; on failure sends the
  /// typed error itself and returns null. \p DL bounds both the wait on
  /// another thread's in-flight pass and this caller's own planning.
  std::shared_ptr<runtime::Plan> acquirePlan(Conn &C, std::uint32_t RequestId,
                                             const WireSpec &WS,
                                             const support::Deadline &DL);

  ServerOptions Opts;
  Diagnostics Diags;
  runtime::Planner ThePlanner;
  runtime::PlanRegistry Registry;
  std::unique_ptr<ThreadPool> Pool;

  int ListenFd = -1;
  std::thread Acceptor;
  std::atomic<bool> Running{false};
  std::atomic<bool> ShutdownFlag{false};
  /// Admitted requests and open connections: the levels the SpldInflight
  /// and SpldActiveConnections gauges are set from, so arming or disarming
  /// metrics while they change cannot leave the gauges drifted.
  std::atomic<int> GlobalInflight{0};
  std::atomic<int> LiveConns{0};

  mutable std::mutex ConnsM;
  std::vector<std::shared_ptr<Conn>> Conns;

  std::mutex ShutdownM;
  std::condition_variable ShutdownCv;

  mutable std::mutex StatsM;
  Stats S;
};

} // namespace service
} // namespace spl

#endif // SPL_SERVICE_SERVER_H
