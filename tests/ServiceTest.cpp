//===- tests/ServiceTest.cpp - spld service layer tests -----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the plan-serving service layer (src/service): wire-protocol
/// round trips and malformed-input rejection, then live Server/Client
/// integration over a real Unix-domain socket — plan/execute parity with
/// in-process plans, typed error codes, admission control (BUSY,
/// TOO_LARGE), stats scraping, shutdown draining, and degradation under
/// injected faults.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "search/PlanCache.h"
#include "service/Client.h"
#include "service/Server.h"
#include "service/Socket.h"
#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "telemetry/Metrics.h"
#include "transforms/Registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <set>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace spl;
using namespace spl::service;

namespace {

//===----------------------------------------------------------------------===//
// Protocol unit tests (no sockets)
//===----------------------------------------------------------------------===//

TEST(Protocol, HeaderRoundTrip) {
  FrameHeader H;
  H.Type = MsgType::ExecuteReq;
  H.RequestId = 0xDEADBEEF;
  H.BodyLen = 12345;
  std::uint8_t Buf[kHeaderBytes];
  H.encode(Buf);

  FrameHeader Out;
  ASSERT_TRUE(FrameHeader::decode(Buf, Out));
  EXPECT_EQ(Out.Type, MsgType::ExecuteReq);
  EXPECT_EQ(Out.RequestId, 0xDEADBEEFu);
  EXPECT_EQ(Out.BodyLen, 12345u);
}

TEST(Protocol, HeaderRejectsBadMagicAndVersion) {
  FrameHeader H;
  std::uint8_t Buf[kHeaderBytes];
  H.encode(Buf);
  FrameHeader Out;
  ASSERT_TRUE(FrameHeader::decode(Buf, Out));

  std::uint8_t Bad[kHeaderBytes];
  std::memcpy(Bad, Buf, kHeaderBytes);
  Bad[0] ^= 0xFF; // Corrupt the magic.
  EXPECT_FALSE(FrameHeader::decode(Bad, Out));

  // One version only: every other value in the u16 at offset 4 is refused.
  for (unsigned V : {0u, 1u, 2u, 3u, 4u, 6u, 0xFFFFu}) {
    std::memcpy(Bad, Buf, kHeaderBytes);
    Bad[4] = static_cast<std::uint8_t>(V);
    Bad[5] = static_cast<std::uint8_t>(V >> 8);
    EXPECT_FALSE(FrameHeader::decode(Bad, Out)) << "version " << V;
  }
}

TEST(Protocol, PlanMessagesRoundTrip) {
  PlanRequest Req;
  Req.Spec.Transform = "wht";
  Req.Spec.Size = 64;
  Req.Spec.Datatype = "real";
  Req.Spec.UnrollThreshold = 8;
  Req.Spec.MaxLeaf = 32;
  Req.Spec.Backend = "vm";
  auto Bytes = Req.encode();
  PlanRequest Back;
  ASSERT_TRUE(PlanRequest::decode(Bytes.data(), Bytes.size(), Back));
  EXPECT_EQ(Back.Spec.Transform, "wht");
  EXPECT_EQ(Back.Spec.Size, 64);
  EXPECT_EQ(Back.Spec.Backend, "vm");

  bool OK = false;
  runtime::PlanSpec Spec = Back.Spec.toSpec(OK);
  ASSERT_TRUE(OK);
  EXPECT_EQ(Spec.Want, runtime::Backend::VM);
  EXPECT_EQ(Spec.key(), "wht 64 real B8 L32 vm auto");

  PlanResponse Resp;
  Resp.Key = Spec.key();
  Resp.Backend = "vm";
  Resp.VectorLen = 64;
  Resp.Cost = 2.5;
  Resp.Fallback = true;
  Resp.FallbackReason = "native compile failed";
  Resp.FormulaText = "(F 2)";
  auto RB = Resp.encode();
  PlanResponse RBack;
  ASSERT_TRUE(PlanResponse::decode(RB.data(), RB.size(), RBack));
  EXPECT_EQ(RBack.Key, Resp.Key);
  EXPECT_EQ(RBack.VectorLen, 64);
  EXPECT_DOUBLE_EQ(RBack.Cost, 2.5);
  EXPECT_TRUE(RBack.Fallback);
  EXPECT_EQ(RBack.FallbackReason, "native compile failed");
}

TEST(Protocol, ExecuteMessagesRoundTripBitExact) {
  ExecuteRequest Req;
  Req.Spec.Transform = "fft";
  Req.Spec.Size = 4;
  Req.Count = 2;
  Req.Threads = 3;
  // Bit patterns that punish any text or float conversion on the path.
  Req.Data = {0.1, -0.0, 1e-308, 3.141592653589793, -2.5e17, 0.0, 7.0, -1.0,
              42.0, 1e-17, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0};
  auto Bytes = Req.encode();
  ExecuteRequest Back;
  ASSERT_TRUE(ExecuteRequest::decode(Bytes.data(), Bytes.size(), Back));
  EXPECT_EQ(Back.Count, 2);
  EXPECT_EQ(Back.Threads, 3);
  ASSERT_EQ(Back.Data.size(), Req.Data.size());
  EXPECT_EQ(std::memcmp(Back.Data.data(), Req.Data.data(),
                        Req.Data.size() * sizeof(double)),
            0);

  ExecuteResponse Resp;
  Resp.Count = 2;
  Resp.VectorLen = 8;
  Resp.Data = Req.Data;
  auto RB = Resp.encode();
  ExecuteResponse RBack;
  ASSERT_TRUE(ExecuteResponse::decode(RB.data(), RB.size(), RBack));
  EXPECT_EQ(std::memcmp(RBack.Data.data(), Req.Data.data(),
                        Req.Data.size() * sizeof(double)),
            0);
}

TEST(Protocol, TruncatedBodiesAreRejected) {
  PlanRequest Req;
  Req.Spec.Size = 16;
  auto Bytes = Req.encode();
  PlanRequest Out;
  for (std::size_t Cut = 0; Cut < Bytes.size(); ++Cut)
    EXPECT_FALSE(PlanRequest::decode(Bytes.data(), Cut, Out))
        << "accepted a body truncated to " << Cut << " bytes";

  ExecuteRequest EReq;
  EReq.Spec.Size = 4;
  EReq.Count = 1;
  EReq.Data = {1, 2, 3, 4, 5, 6, 7, 8};
  auto EBytes = EReq.encode();
  ExecuteRequest EOut;
  EXPECT_TRUE(ExecuteRequest::decode(EBytes.data(), EBytes.size(), EOut));
  EXPECT_FALSE(
      ExecuteRequest::decode(EBytes.data(), EBytes.size() - 1, EOut));
  // Trailing garbage is as corrupt as truncation.
  EBytes.push_back(0);
  EXPECT_FALSE(
      ExecuteRequest::decode(EBytes.data(), EBytes.size(), EOut));
}

TEST(Protocol, StatusMapsOntoCliExitCodes) {
  EXPECT_EQ(statusToExitCode(Status::Ok), 0);
  EXPECT_EQ(statusToExitCode(Status::BadRequest), 2);
  EXPECT_EQ(statusToExitCode(Status::BadSpec), 3);
  EXPECT_EQ(statusToExitCode(Status::PlanFailed), 4);
  EXPECT_EQ(statusToExitCode(Status::ExecFailed), 5);
  // A spent budget has its own exit code so scripts can tell "slow" from
  // "wrong" without parsing stderr.
  EXPECT_EQ(statusToExitCode(Status::DeadlineExceeded), 6);
  EXPECT_STREQ(statusName(Status::DeadlineExceeded), "deadline-exceeded");
  // Service-only statuses collapse onto the execution stage.
  EXPECT_EQ(statusToExitCode(Status::Busy), 5);
  EXPECT_EQ(statusToExitCode(Status::TooLarge), 5);
  EXPECT_EQ(statusToExitCode(Status::ShuttingDown), 5);
  EXPECT_EQ(statusToExitCode(Status::Protocol), 5);
  EXPECT_STREQ(statusName(Status::Busy), "busy");
  EXPECT_STREQ(statusName(Status::TooLarge), "too-large");
}

//===----------------------------------------------------------------------===//
// Server/Client integration
//===----------------------------------------------------------------------===//

/// Starts a Server on a per-test socket and tears it down afterwards.
class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    Path = "/tmp/spl-service-test-" + std::to_string(getpid()) + "-" +
           std::to_string(Seq++) + ".sock";
    telemetry::setMetricsEnabled(true);
  }

  void TearDown() override {
    if (Srv)
      Srv->stop();
    Srv.reset();
    telemetry::setMetricsEnabled(false);
    ::unlink(Path.c_str());
  }

  /// Builds and starts a server; tests tweak \p Mutate for limits.
  void startServer(const std::function<void(ServerOptions &)> &Mutate = {}) {
    ServerOptions Opts;
    Opts.SocketPath = Path;
    Opts.Workers = 4;
    Opts.Planner.UseWisdom = false;
    Opts.Planner.Evaluator = "opcount";
    if (Mutate)
      Mutate(Opts);
    Srv = std::make_unique<Server>(Opts);
    ASSERT_TRUE(Srv->start()) << Srv->diagnostics().dump();
  }

  /// The canonical cheap spec: VM tier, no compiler dependency.
  static runtime::PlanSpec vmSpec(const char *Transform, std::int64_t N) {
    runtime::PlanSpec S;
    S.Transform = Transform;
    S.Size = N;
    S.Want = runtime::Backend::VM;
    return S;
  }

  std::string Path;
  std::unique_ptr<Server> Srv;
  static int Seq;
};

int ServiceTest::Seq = 0;

TEST_F(ServiceTest, PingAndStats) {
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  EXPECT_TRUE(C.ping()) << C.lastError();

  auto Json = C.stats();
  ASSERT_TRUE(Json) << C.lastError();
  // The daemon's own identity plus the process metric catalogue.
  EXPECT_NE(Json->find("\"server\""), std::string::npos);
  EXPECT_NE(Json->find("\"socket\""), std::string::npos);
  EXPECT_NE(Json->find("\"metrics\""), std::string::npos);
  EXPECT_NE(Json->find("spld.requests"), std::string::npos);
}

TEST_F(ServiceTest, PlanExecuteMatchesInProcessBitExact) {
  startServer();
  auto Spec = vmSpec("fft", 16);

  // In-process reference with the same options.
  Diagnostics Diags;
  runtime::PlannerOptions PO;
  PO.UseWisdom = false;
  runtime::Planner Local(Diags, PO);
  auto Ref = Local.plan(Spec);
  ASSERT_TRUE(Ref) << Diags.dump();
  const std::int64_t Len = Ref->vectorLen();

  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  auto PR = C.plan(Spec);
  ASSERT_TRUE(PR) << C.lastError();
  EXPECT_EQ(PR->Key, Spec.key());
  EXPECT_EQ(PR->Backend, std::string("vm"));
  EXPECT_EQ(PR->VectorLen, Len);
  EXPECT_EQ(PR->FormulaText, Ref->formulaText());

  const std::int64_t Count = 8;
  std::vector<double> X(Count * Len), YD(Count * Len), YL(Count * Len);
  for (std::size_t I = 0; I != X.size(); ++I)
    X[I] = std::sin(0.37 * static_cast<double>(I)) * 2.0 - 0.5;
  ASSERT_TRUE(C.execute(Spec, YD.data(), X.data(), Count, Len, 2))
      << C.lastError();
  Ref->executeBatch(YL.data(), X.data(), Count, 1);
  EXPECT_EQ(std::memcmp(YD.data(), YL.data(), YD.size() * sizeof(double)), 0)
      << "daemon and in-process execution disagree bit-for-bit";
}

TEST_F(ServiceTest, ManyClientsShareOneRegistryEntry) {
  startServer();
  auto Spec = vmSpec("wht", 16);
  const int N = 8;
  std::vector<std::thread> Ts;
  std::atomic<int> Failures{0};
  for (int I = 0; I != N; ++I)
    Ts.emplace_back([&] {
      Client C;
      if (!C.connect(Path) || !C.planRetryBusy(Spec))
        Failures.fetch_add(1);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(Failures.load(), 0);
  // All eight clients were served by one planning pass.
  EXPECT_EQ(Srv->registry().size(), 1u);
  auto RS = Srv->registry().stats();
  EXPECT_EQ(RS.Misses, 1u);
  EXPECT_EQ(RS.Hits + RS.Waits, static_cast<std::size_t>(N - 1));
}

TEST_F(ServiceTest, TypedErrorsForBadRequests) {
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();

  // Non-power-of-two: spec validation rejects it.
  auto Bad = C.plan(vmSpec("fft", 20));
  EXPECT_FALSE(Bad);
  EXPECT_EQ(C.lastStatus(), Status::BadSpec) << C.lastError();
  EXPECT_NE(C.lastError().find("error"), std::string::npos);

  // Unknown transform.
  EXPECT_FALSE(C.plan(vmSpec("dst", 16)));
  EXPECT_EQ(C.lastStatus(), Status::BadSpec);

  // Execute payload that disagrees with the plan's vector length.
  auto Spec = vmSpec("wht", 8);
  std::vector<double> X(4), Y(4);
  EXPECT_FALSE(C.execute(Spec, Y.data(), X.data(), 1, 4));
  EXPECT_EQ(C.lastStatus(), Status::BadRequest) << C.lastError();

  // The connection survives typed errors.
  EXPECT_TRUE(C.ping()) << C.lastError();
}

TEST_F(ServiceTest, ExecuteCountOverflowIsRejected) {
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;

  // Counts chosen so a naive `Count * vectorLen` size check wraps int64
  // to match the payload: 2^61 * 8 == 0 (empty payload) and
  // (2^61 + 1) * 8 == 8 (one vector). Either would have sent executeBatch
  // off the end of the buffers; both must come back BAD_REQUEST.
  ExecuteRequest Wrap;
  Wrap.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  Wrap.Count = std::int64_t(1) << 61;
  ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 7, Wrap.encode()));

  ExecuteRequest Wrap2;
  Wrap2.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  Wrap2.Count = (std::int64_t(1) << 61) + 1;
  Wrap2.Data.assign(8, 1.0);
  ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 8, Wrap2.encode()));

  // Both requests run concurrently on the pool, so the two rejections can
  // come back in either order.
  std::set<std::uint32_t> Answered;
  for (int I = 0; I != 2; ++I) {
    Frame F;
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
    ASSERT_EQ(F.Type, MsgType::ErrorResp);
    Answered.insert(F.RequestId);
    ErrorBody E;
    ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
    EXPECT_EQ(E.Code, Status::BadRequest);
  }
  EXPECT_EQ(Answered, (std::set<std::uint32_t>{7u, 8u}));
  ::close(Fd);
}

TEST_F(ServiceTest, ListenRefusesLiveDaemonSocket) {
  startServer();
  // A second daemon pointed at the same --socket must fail loudly instead
  // of silently unlinking the live daemon's socket and hijacking it.
  std::string Err;
  int Fd = listenUnix(Path, 4, Err);
  EXPECT_LT(Fd, 0);
  EXPECT_NE(Err.find("live daemon"), std::string::npos) << Err;
  // The original daemon is untouched.
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  EXPECT_TRUE(C.ping()) << C.lastError();
}

TEST_F(ServiceTest, ListenReclaimsStaleSocketFile) {
  // A crashed daemon leaves the socket file behind with nobody listening;
  // a fresh listen must detect the stale file and reclaim the path.
  std::string Err;
  int Fd = listenUnix(Path, 4, Err);
  ASSERT_GE(Fd, 0) << Err;
  ::close(Fd); // Crash-like exit: file still on disk, no listener.
  int Fd2 = listenUnix(Path, 4, Err);
  EXPECT_GE(Fd2, 0) << Err;
  if (Fd2 >= 0)
    ::close(Fd2);
}

TEST_F(ServiceTest, OversizedTransformAndFrameAreRejected) {
  startServer([](ServerOptions &O) {
    O.MaxTransformSize = 64;
    O.MaxFrameBytes = 4096;
  });
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();

  EXPECT_FALSE(C.plan(vmSpec("fft", 128)));
  EXPECT_EQ(C.lastStatus(), Status::TooLarge) << C.lastError();

  // 1024 doubles > the 4 KiB frame cap; the server must reject AND keep
  // the connection usable.
  auto Spec = vmSpec("wht", 64);
  std::vector<double> X(1024), Y(1024);
  EXPECT_FALSE(C.execute(Spec, Y.data(), X.data(), 16, 64));
  EXPECT_EQ(C.lastStatus(), Status::TooLarge) << C.lastError();
  EXPECT_TRUE(C.ping()) << C.lastError();

  auto St = Srv->stats();
  EXPECT_EQ(St.RejectedTooLarge, 2u);
}

TEST_F(ServiceTest, PerClientQuotaAnswersBusy) {
  // One worker and a quota of one: a second request pipelined behind a
  // slow plan must bounce with BUSY instead of queueing.
  startServer([](ServerOptions &O) {
    O.Workers = 1;
    O.PerClientInflight = 1;
    O.Planner.Evaluator = "vmtime"; // Timed search: reliably non-instant.
  });
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;

  PlanRequest Slow;
  Slow.Spec = WireSpec::fromSpec(vmSpec("fft", 64));
  PlanRequest Quick;
  Quick.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 1, Slow.encode()));
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 2, Quick.encode()));

  // First frame back: the immediate BUSY for request 2 (the reader thread
  // rejects before the pool ever sees it).
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  ASSERT_EQ(F.Type, MsgType::ErrorResp);
  EXPECT_EQ(F.RequestId, 2u);
  ErrorBody E;
  ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
  EXPECT_EQ(E.Code, Status::Busy);

  // Second frame: the slow plan completes normally.
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::PlanResp);
  EXPECT_EQ(F.RequestId, 1u);
  ::close(Fd);

  EXPECT_GE(Srv->stats().RejectedBusy, 1u);
}

TEST_F(ServiceTest, MalformedFrameDropsConnection) {
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;
  const char Garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_EQ(::send(Fd, Garbage, sizeof(Garbage) - 1, MSG_NOSIGNAL),
            ssize_t(sizeof(Garbage) - 1));

  // The server answers with a protocol error, then hangs up.
  Frame F;
  IoStatus St = readFrame(Fd, kDefaultMaxFrameBytes, F);
  if (St == IoStatus::Ok) {
    EXPECT_EQ(F.Type, MsgType::ErrorResp);
    ErrorBody E;
    ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
    EXPECT_EQ(E.Code, Status::Protocol);
    St = readFrame(Fd, kDefaultMaxFrameBytes, F);
  }
  EXPECT_EQ(St, IoStatus::Closed);
  ::close(Fd);
}

TEST_F(ServiceTest, RequestShutdownWakesBlockedWaiter) {
  startServer();
  std::thread Waiter([&] { Srv->waitForShutdownRequest(); });
  // Give the waiter time to actually block so a store without a held-lock
  // notify (the lost-wakeup bug) would hang this join forever.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Srv->requestShutdown();
  Waiter.join();
  EXPECT_TRUE(Srv->shutdownRequested());
}

TEST_F(ServiceTest, ShutdownRequestDrainsAndStops) {
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  ASSERT_TRUE(C.planRetryBusy(vmSpec("wht", 8))) << C.lastError();
  ASSERT_TRUE(C.shutdownServer()) << C.lastError();
  EXPECT_TRUE(Srv->shutdownRequested());
  Srv->stop();
  // The socket file is gone; new connections fail cleanly.
  Client C2;
  EXPECT_FALSE(C2.connect(Path));
  // Admissions after drain answer SHUTTING_DOWN (exercised via the typed
  // path in admit(); the daemon-side flag is already set pre-stop).
}

TEST_F(ServiceTest, WisdomSurvivesShutdown) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Wisdom = Path + ".wisdom";
  startServer([&](ServerOptions &O) {
    O.Planner.UseWisdom = true;
    O.Planner.WisdomPath = Wisdom;
  });
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  ASSERT_TRUE(C.planRetryBusy(vmSpec("fft", 16))) << C.lastError();
  ASSERT_TRUE(C.planRetryBusy(vmSpec("wht", 16))) << C.lastError();
  size_t Held = Srv->planner().wisdom().size();
  EXPECT_GT(Held, 0u);
  Srv->stop();

  Diagnostics Diags;
  search::PlanCache Reloaded(Diags);
  ASSERT_TRUE(Reloaded.load(Wisdom));
  EXPECT_GE(Reloaded.size(), Held) << "wisdom entries lost across shutdown";
  EXPECT_EQ(Reloaded.stats().Skipped, 0u);
  test::removeRecordFile(Wisdom);
}

TEST_F(ServiceTest, TruncatedDeadlineFieldGetsTypedError) {
  // A frame whose body ends inside the DeadlineMs prefix is malformed,
  // not fatal: the daemon answers a typed BAD_REQUEST and keeps serving
  // the connection.
  startServer();
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;

  PlanRequest Req;
  Req.Spec = WireSpec::fromSpec(vmSpec("wht", 8));
  auto Full = Req.encode();
  for (std::size_t Cut : {std::size_t(0), std::size_t(2), std::size_t(3)}) {
    std::vector<std::uint8_t> Short(Full.begin(), Full.begin() + Cut);
    ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 30 + Cut, Short));
    Frame F;
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
    ASSERT_EQ(F.Type, MsgType::ErrorResp) << "cut at " << Cut;
    ErrorBody E;
    ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
    EXPECT_EQ(E.Code, Status::BadRequest) << "cut at " << Cut;
  }

  // The connection survived all three malformed bodies.
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 40, Full));
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::PlanResp);
  ::close(Fd);
}

TEST_F(ServiceTest, ExpiredInQueueIsRejectedWithTypedStatus) {
  // One worker, occupied by a timed search: a request whose entire budget
  // is 1 ms expires while queued and must come back DEADLINE_EXCEEDED
  // without the pool ever running it.
  startServer([](ServerOptions &O) {
    O.Workers = 1;
    O.Planner.Evaluator = "vmtime"; // Timed search: reliably non-instant.
  });
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;
  PlanRequest Slow;
  Slow.Spec = WireSpec::fromSpec(vmSpec("fft", 128));
  ASSERT_TRUE(writeFrame(Fd, MsgType::PlanReq, 1, Slow.encode()));
  // Give the worker time to pick the slow search up so the next request
  // is guaranteed to queue behind it rather than race it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  Client C;
  C.setDeadline(support::Deadline::afterMs(1));
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  EXPECT_FALSE(C.plan(vmSpec("wht", 8)));
  EXPECT_EQ(C.lastStatus(), Status::DeadlineExceeded) << C.lastError();
  EXPECT_NE(C.lastError().find("deadline"), std::string::npos)
      << C.lastError();

  // The slow plan behind it is unharmed, and the rejection is visible in
  // the daemon's own accounting.
  Frame F;
  ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
  EXPECT_EQ(F.Type, MsgType::PlanResp);
  ::close(Fd);
  EXPECT_GE(Srv->stats().RejectedDeadline, 1u);
}

TEST_F(ServiceTest, ShapedPlanExecuteRoundTrip) {
  // A 2-D row-column spec over the client: the daemon plans
  // the kron formula, keys it distinctly, and transforms an impulse into
  // the all-ones spectrum.
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  runtime::PlanSpec S = vmSpec("fft", 0);
  S.Shape = {8, 8};
  auto PR = C.planRetryBusy(S);
  ASSERT_TRUE(PR) << C.lastError();
  EXPECT_EQ(PR->VectorLen, 128); // 64 complex points interleaved.
  EXPECT_NE(PR->Key.find("S8x8"), std::string::npos) << PR->Key;

  std::vector<double> X(128, 0.0), Y(128, 0.0);
  X[0] = 1.0;
  ASSERT_TRUE(C.executeRetryBusy(S, Y.data(), X.data(), 1, 128, 1))
      << C.lastError();
  for (int I = 0; I != 128; ++I)
    EXPECT_NEAR(Y[I], (I % 2) == 0 ? 1.0 : 0.0, 1e-10) << "element " << I;
}

TEST_F(ServiceTest, OversizedShapeProductIsRejected) {
  // The admission cap applies to the shape product, not the (possibly
  // zero) Size field a shaped request carries.
  startServer([](ServerOptions &O) { O.MaxTransformSize = 64; });
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  runtime::PlanSpec S = vmSpec("fft", 0);
  S.Shape = {16, 16};
  EXPECT_FALSE(C.plan(S));
  EXPECT_EQ(C.lastStatus(), Status::TooLarge) << C.lastError();
}

TEST_F(ServiceTest, RegistryTransformsServedWithOracleParity) {
  // rdft and dct2 over the daemon: halfcomplex and real layouts ride the
  // same wire as the complex fft, and the served numbers match the dense
  // registry oracle.
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  for (const char *Name : {"rdft", "dct2"}) {
    const transforms::TransformInfo *TI = transforms::lookup(Name);
    ASSERT_NE(TI, nullptr) << Name;
    runtime::PlanSpec S = vmSpec(Name, 16);
    auto PR = C.planRetryBusy(S);
    ASSERT_TRUE(PR) << Name << ": " << C.lastError();
    EXPECT_EQ(PR->VectorLen, 16) << Name; // Real in, N doubles out.

    std::vector<double> X(16), Y(16, 0.0);
    for (int I = 0; I != 16; ++I)
      X[I] = 0.25 * (I % 5) - 0.5;
    ASSERT_TRUE(C.executeRetryBusy(S, Y.data(), X.data(), 1, 16, 1))
        << Name << ": " << C.lastError();

    Matrix M = transforms::oracleMatrix(*TI, {16});
    std::vector<Cplx> In(16);
    for (int I = 0; I != 16; ++I)
      In[I] = Cplx(X[I], 0.0);
    std::vector<Cplx> Ref = M.apply(In);
    for (int I = 0; I != 16; ++I)
      EXPECT_NEAR(Y[I], Ref[I].real(), 1e-10) << Name << " element " << I;
  }
}

/// \p Count vectors of an in-process VM plan for \p Spec, the reference
/// every daemon execute must match bit for bit.
std::vector<double> localBatch(const runtime::PlanSpec &Spec,
                               const std::vector<double> &X,
                               std::int64_t Count) {
  Diagnostics Diags;
  runtime::PlannerOptions PO;
  PO.UseWisdom = false;
  PO.Evaluator = "opcount";
  runtime::Planner Local(Diags, PO);
  auto Ref = Local.plan(Spec);
  EXPECT_TRUE(Ref) << Diags.dump();
  std::vector<double> Y(X.size());
  if (Ref)
    Ref->executeBatch(Y.data(), X.data(), Count, 1);
  return Y;
}

std::vector<double> rampInput(std::size_t N, double Phase) {
  std::vector<double> X(N);
  for (std::size_t I = 0; I != N; ++I)
    X[I] = std::sin(Phase + 0.29 * static_cast<double>(I));
  return X;
}

TEST_F(ServiceTest, ExecuteFromUnalignedCallerMemoryIsBitExact) {
  // The client sends X and receives Y in place, so caller buffers at any
  // double-aligned offset from a 64-byte boundary must work unchanged.
  startServer();
  const runtime::PlanSpec Spec = vmSpec("fft", 64);
  const std::int64_t Count = 5, Len = 128;
  const std::vector<double> X = rampInput(Count * Len, 0.5);
  const std::vector<double> Want = localBatch(Spec, X, Count);
  const std::size_t Bytes = X.size() * sizeof(double);
  std::vector<std::uint8_t> XMem(Bytes + 128), YMem(Bytes + 128);
  auto At = [](std::vector<std::uint8_t> &M, std::size_t Off) {
    auto P = reinterpret_cast<std::uintptr_t>(M.data());
    return reinterpret_cast<double *>((P + 63) / 64 * 64 + Off);
  };
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  for (std::size_t Off : {0u, 8u, 24u}) {
    double *XP = At(XMem, Off), *YP = At(YMem, Off);
    std::memcpy(XP, X.data(), Bytes);
    std::memset(YP, 0, Bytes);
    ASSERT_TRUE(C.execute(Spec, YP, XP, Count, Len, 2)) << C.lastError();
    EXPECT_EQ(std::memcmp(YP, Want.data(), Bytes), 0) << "offset " << Off;
  }
}

TEST_F(ServiceTest, RdftServedBitIdenticalToInProcess) {
  // rdft's kernel reads the received body and writes the response body;
  // the bytes match an in-process plan's, F_1 included.
  startServer();
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  for (std::int64_t N : {2, 64, 1024}) {
    const runtime::PlanSpec Spec = vmSpec("rdft", N);
    const std::int64_t Count = 3;
    const std::vector<double> X = rampInput(Count * N, 0.25);
    const std::vector<double> Want = localBatch(Spec, X, Count);
    std::vector<double> Y(X.size(), 0.0);
    ASSERT_TRUE(C.executeRetryBusy(Spec, Y.data(), X.data(), Count, N, 2))
        << "rdft " << N << ": " << C.lastError();
    EXPECT_EQ(std::memcmp(Y.data(), Want.data(), Y.size() * sizeof(double)),
              0)
        << "rdft " << N;
  }
}

TEST_F(ServiceTest, PipelinedExecuteFramesAreAllAnswered) {
  // Three execute frames written before any read run concurrently on the
  // pool, each in its own request and response bodies.
  startServer();
  const runtime::PlanSpec Spec = vmSpec("fft", 32);
  std::string Err;
  int Fd = connectUnix(Path, Err);
  ASSERT_GE(Fd, 0) << Err;
  std::vector<std::vector<double>> Want;
  for (std::uint32_t Id = 0; Id != 3; ++Id) {
    ExecuteRequest Req;
    Req.Spec = WireSpec::fromSpec(Spec);
    Req.Count = 2 + Id;
    Req.Data = rampInput(Req.Count * 64, Id);
    Want.push_back(localBatch(Spec, Req.Data, Req.Count));
    ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 100 + Id, Req.encode()));
  }
  std::set<std::uint32_t> Answered;
  for (int I = 0; I != 3; ++I) {
    Frame F;
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
    ASSERT_EQ(F.Type, MsgType::ExecuteResp);
    const std::uint32_t K = F.RequestId - 100;
    ASSERT_LT(K, 3u);
    Answered.insert(K);
    ExecuteResponse R;
    ASSERT_TRUE(ExecuteResponse::decode(F.Body.data(), F.Body.size(), R));
    EXPECT_EQ(R.Count, static_cast<std::int64_t>(2 + K));
    EXPECT_EQ(R.VectorLen, 64);
    ASSERT_EQ(R.Data.size(), Want[K].size());
    EXPECT_EQ(std::memcmp(R.Data.data(), Want[K].data(),
                          R.Data.size() * sizeof(double)),
              0)
        << "request " << K;
  }
  EXPECT_EQ(Answered.size(), 3u);
  ::close(Fd);
}

TEST_F(ServiceTest, OtherHeaderVersionsAreRefused) {
  // The daemon speaks exactly one protocol version. Every other value gets
  // a typed PROTOCOL error and a hang-up, older revisions included.
  startServer();
  for (unsigned V : {0u, 1u, 2u, 3u, 4u, 6u, 0xFFFFu}) {
    std::string Err;
    int Fd = connectUnix(Path, Err);
    ASSERT_GE(Fd, 0) << Err;
    FrameHeader H;
    std::uint8_t Hdr[kHeaderBytes];
    H.encode(Hdr);
    Hdr[4] = static_cast<std::uint8_t>(V);
    Hdr[5] = static_cast<std::uint8_t>(V >> 8);
    ASSERT_EQ(::send(Fd, Hdr, kHeaderBytes, MSG_NOSIGNAL),
              ssize_t(kHeaderBytes));
    Frame F;
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok)
        << "version " << V;
    ASSERT_EQ(F.Type, MsgType::ErrorResp) << "version " << V;
    ErrorBody E;
    ASSERT_TRUE(ErrorBody::decode(F.Body.data(), F.Body.size(), E));
    EXPECT_EQ(E.Code, Status::Protocol) << "version " << V;
    EXPECT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Closed)
        << "version " << V;
    ::close(Fd);
  }
  Client C;
  ASSERT_TRUE(C.connect(Path)) << C.lastError();
  EXPECT_TRUE(C.ping()) << C.lastError();
}

TEST_F(ServiceTest, ResponseShapeMismatchLeavesCallerMemoryUntouched) {
  // A peer that answers with the wrong shape must not get a single byte
  // into Y: the client checks the response prefix first, then reports
  // PROTOCOL and disconnects. A fake daemon serves one bad response per
  // connection.
  int L = -1;
  {
    std::string Err;
    L = listenUnix(Path, 4, Err);
    ASSERT_GE(L, 0) << Err;
  }
  const std::int64_t Count = 2, Len = 8;
  struct Case {
    const char *What;
    std::int64_t Count, VectorLen;
    std::uint64_t N;
    bool DirtyPad;
  };
  const std::vector<Case> Cases = {
      {"count", Count + 1, Len, Count * Len, false},
      {"vector length", Count, Len * 2, Count * Len, false},
      {"payload length", Count, Len, Count * Len + 1, false},
      {"non-zero pad", Count, Len, Count * Len, true},
  };
  std::thread Fake([&] {
    for (const Case &K : Cases) {
      int Fd = ::accept(L, nullptr, nullptr);
      if (Fd < 0)
        return;
      Frame F;
      if (readFrame(Fd, kDefaultMaxFrameBytes, F) == IoStatus::Ok) {
        std::vector<std::uint8_t> Body =
            ExecuteResponsePrefix{K.Count, K.VectorLen}.encodePrefix(K.N);
        if (K.DirtyPad)
          Body[kExecuteRespPrefixBytes - 1] = 1;
        Body.resize(Body.size() + K.N * 8, 0xAB);
        writeFrame(Fd, MsgType::ExecuteResp, F.RequestId, Body);
      }
      // Wait for the client to hang up before closing our end.
      while (readFrame(Fd, kDefaultMaxFrameBytes, F) == IoStatus::Ok) {
      }
      ::close(Fd);
    }
  });
  const std::vector<double> X(Count * Len, 1.0);
  for (const Case &K : Cases) {
    // Y sits between two canary blocks; all of it must survive.
    std::vector<double> Mem(3 * Count * Len, -3.25);
    const std::vector<double> Before = Mem;
    Client C;
    ASSERT_TRUE(C.connect(Path)) << C.lastError();
    EXPECT_FALSE(C.execute(vmSpec("fft", 4), Mem.data() + Count * Len,
                           X.data(), Count, Len))
        << K.What;
    EXPECT_EQ(C.lastStatus(), Status::Protocol) << K.What;
    EXPECT_FALSE(C.connected()) << K.What;
    EXPECT_EQ(Mem, Before) << K.What << ": bytes landed around or in Y";
  }
  Fake.join();
  ::close(L);
}

TEST_F(ServiceTest, DisconnectWithRequestInFlightTearsDownPromptly) {
  // A client that half-closes with an execute in flight gets its reply,
  // then the hang-up. The reader waits for the job with a condition
  // variable the job signals, not with a sleep tick, so the gap between
  // reply and hang-up is a thread wake-up, far below a millisecond.
  startServer([](ServerOptions &O) { O.Workers = 1; });
  const runtime::PlanSpec Spec = vmSpec("fft", 256);
  ExecuteRequest Req;
  Req.Spec = WireSpec::fromSpec(Spec);
  Req.Count = 64;
  Req.Data = rampInput(Req.Count * 512, 0.0);
  const std::vector<std::uint8_t> Body = Req.encode();
  {
    Client Warm; // Plan once so every trial measures execute only.
    ASSERT_TRUE(Warm.connect(Path) && Warm.planRetryBusy(Spec))
        << Warm.lastError();
  }
  using Clock = std::chrono::steady_clock;
  std::vector<double> GapUs;
  for (int Trial = 0; Trial != 11; ++Trial) {
    std::string Err;
    int Fd = connectUnix(Path, Err);
    ASSERT_GE(Fd, 0) << Err;
    ASSERT_TRUE(writeFrame(Fd, MsgType::ExecuteReq, 1, Body));
    ::shutdown(Fd, SHUT_WR); // Disconnect with the request in flight.
    Frame F;
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
    const Clock::time_point Reply = Clock::now();
    ASSERT_EQ(F.Type, MsgType::ExecuteResp);
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Closed);
    GapUs.push_back(
        std::chrono::duration<double, std::micro>(Clock::now() - Reply)
            .count());
    ::close(Fd);
  }
  std::sort(GapUs.begin(), GapUs.end());
  EXPECT_LT(GapUs[GapUs.size() / 2], 250.0)
      << "median reply-to-hang-up gap; max " << GapUs.back() << " us";
}

TEST_F(ServiceTest, ConnectionGaugeSurvivesArmingToggles) {
  // spld.active_connections is set from the server's live-connection count,
  // so a connection opened and closed on different sides of an arming toggle
  // leaves no +1 or -1 behind: the next change reports the true level.
  startServer();
  auto OpenAndClose = [&](bool ArmedAtOpen, bool ArmedAtClose) {
    telemetry::setMetricsEnabled(ArmedAtOpen);
    std::string Err;
    int Fd = connectUnix(Path, Err);
    ASSERT_GE(Fd, 0) << Err;
    Frame F;
    // A ping answer proves the acceptor has counted the connection.
    ASSERT_TRUE(writeFrame(Fd, MsgType::PingReq, 1, {}));
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Ok);
    telemetry::setMetricsEnabled(ArmedAtClose);
    ::shutdown(Fd, SHUT_WR);
    // The hang-up arrives as the reader tears down; give its last step
    // time to run before arming changes again.
    ASSERT_EQ(readFrame(Fd, kDefaultMaxFrameBytes, F), IoStatus::Closed);
    ::close(Fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  };
  auto Active = [] {
    return telemetry::gauge("spld.active_connections").value();
  };
  for (bool ArmedAtOpen : {true, false}) {
    telemetry::resetAllMetrics(); // Each order starts from a true zero.
    OpenAndClose(ArmedAtOpen, !ArmedAtOpen);
    OpenAndClose(true, true); // The next change, fully armed.
    for (int I = 0; I != 200 && Active() != 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(Active(), 0) << "armed at open: " << ArmedAtOpen;
  }
}

TEST_F(ServiceTest, DegradesUnderInjectedFaultInsteadOfFailing) {
  if (fault::armed())
    GTEST_SKIP() << "external fault matrix armed";
  setenv("SPL_FAULT", "native-compile,vm-exec", 1);
  fault::reset();
  startServer();
  Client C;
  bool Connected = C.connect(Path);
  std::optional<PlanResponse> PR;
  if (Connected) {
    runtime::PlanSpec Spec = vmSpec("fft", 8);
    Spec.Want = runtime::Backend::Auto;
    PR = C.planRetryBusy(Spec);
  }
  unsetenv("SPL_FAULT");
  fault::reset();
  ASSERT_TRUE(Connected);
  ASSERT_TRUE(PR) << C.lastError();
  // Both upper tiers were injected away; the daemon still served a plan.
  EXPECT_EQ(PR->Backend, std::string("oracle"));
  EXPECT_TRUE(PR->Fallback);
}

} // namespace
