//===- tests/FrameFuzzTest.cpp - Mutation fuzzing of spld frames --------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeds one valid frame of every MsgType and mutates it: bit flips, byte
/// inserts and deletes, truncation at every prefix length, lying BodyLen /
/// length / rank / count fields, and non-zero pad bytes. Two levels:
///
///  1. Every body decoder (and the header decoder) either rejects a mutated
///     input or returns a value that re-encodes to exactly the same bytes,
///     so no two byte strings decode to one message.
///  2. A live Server answers each mutated frame with a typed error, a valid
///     response or a hang-up -- never a crash or a hang -- and afterwards a
///     well-formed execute on a fresh connection still round-trips bit for
///     bit against the in-process plan.
///
/// Seeds are fixed, so a failure reproduces; each bug the fuzzer found
/// stays behind as a named regression test at the bottom of the file.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Server.h"
#include "service/Socket.h"
#include "telemetry/Metrics.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

using namespace spl;
using namespace spl::service;

namespace {

using Bytes = std::vector<std::uint8_t>;

runtime::PlanSpec vmSpec(const char *Transform, std::int64_t N) {
  runtime::PlanSpec S;
  S.Transform = Transform;
  S.Size = N;
  S.Want = runtime::Backend::VM;
  return S;
}

struct Seed {
  MsgType Type;
  Bytes Body;
};

/// One valid body per message type, with every optional part present
/// (a shaped spec, a fallback reason, a non-empty payload).
std::vector<Seed> seeds() {
  PlanRequest PQ;
  PQ.DeadlineMs = 5000;
  PQ.Spec = WireSpec::fromSpec(vmSpec("fft", 0));
  PQ.Spec.Shape = {4, 4};
  ExecuteRequest EQ;
  EQ.DeadlineMs = 5000;
  EQ.Spec = WireSpec::fromSpec(vmSpec("fft", 4));
  EQ.Count = 2;
  EQ.Threads = 2;
  for (int I = 0; I != 16; ++I)
    EQ.Data.push_back(0.25 * I - 1.0);
  PlanResponse PR;
  PR.Key = "fft 4 complex B16 L16 vm auto";
  PR.Backend = "vm";
  PR.VectorLen = 8;
  PR.Cost = 12.5;
  PR.Fallback = true;
  PR.FallbackReason = "native compile failed";
  PR.FormulaText = "(F 4)";
  ExecuteResponse ER;
  ER.Count = 2;
  ER.VectorLen = 8;
  ER.Data = EQ.Data;
  StatsResponse SR;
  SR.Json = "{\"server\":{}}";
  ErrorBody EB;
  EB.Code = Status::Busy;
  EB.Message = "retry";
  return {{MsgType::PlanReq, PQ.encode()},
          {MsgType::ExecuteReq, EQ.encode()},
          {MsgType::StatsReq, {}},
          {MsgType::PingReq, {}},
          {MsgType::ShutdownReq, {}},
          {MsgType::PlanResp, PR.encode()},
          {MsgType::ExecuteResp, ER.encode()},
          {MsgType::StatsResp, SR.encode()},
          {MsgType::PingResp, {}},
          {MsgType::ShutdownResp, {}},
          {MsgType::ErrorResp, EB.encode()}};
}

Bytes frameBytes(MsgType Type, std::uint32_t Id, const Bytes &Body) {
  FrameHeader H;
  H.Type = Type;
  H.RequestId = Id;
  H.BodyLen = static_cast<std::uint32_t>(Body.size());
  Bytes Out(kHeaderBytes);
  H.encode(Out.data());
  Out.insert(Out.end(), Body.begin(), Body.end());
  return Out;
}

//===----------------------------------------------------------------------===//
// Body layouts: where the integer fields of a seed body sit
//===----------------------------------------------------------------------===//

enum class Kind { U8, U32, U64, Str, Shape, Payload };

std::vector<Kind> layout(MsgType T) {
  const std::vector<Kind> Spec = {Kind::Str, Kind::U64, Kind::Str, Kind::U64,
                                  Kind::U64, Kind::Str, Kind::Str,
                                  Kind::Shape};
  std::vector<Kind> L;
  switch (T) {
  case MsgType::PlanReq:
    L = {Kind::U32};
    L.insert(L.end(), Spec.begin(), Spec.end());
    return L;
  case MsgType::ExecuteReq:
    L = {Kind::U32};
    L.insert(L.end(), Spec.begin(), Spec.end());
    L.insert(L.end(), {Kind::U64, Kind::U32, Kind::Payload});
    return L;
  case MsgType::PlanResp:
    return {Kind::Str, Kind::Str, Kind::U64, Kind::U64,
            Kind::U8,  Kind::Str, Kind::Str};
  case MsgType::ExecuteResp:
    return {Kind::U64, Kind::U64, Kind::Payload};
  case MsgType::StatsResp:
    return {Kind::Str};
  case MsgType::ErrorResp:
    return {Kind::U32, Kind::Str};
  default:
    return {};
  }
}

/// An integer field of a valid body: lengths, counts, ranks and scalars.
struct IntField {
  std::size_t Off;
  std::size_t Width;
};

/// Where a valid seed body's integer fields, pad and payload sit.
struct BodyMap {
  std::vector<IntField> Ints;
  std::size_t PadBegin = 0, PadEnd = 0; ///< Zero bytes before the payload.
};

std::uint64_t readLE(const Bytes &B, std::size_t Off, std::size_t Width) {
  std::uint64_t V = 0;
  for (std::size_t I = 0; I != Width; ++I)
    V |= static_cast<std::uint64_t>(B[Off + I]) << (8 * I);
  return V;
}

BodyMap mapBody(MsgType T, const Bytes &Body) {
  BodyMap M;
  std::size_t Pos = 0;
  for (Kind K : layout(T)) {
    switch (K) {
    case Kind::U8:
      M.Ints.push_back({Pos, 1});
      Pos += 1;
      break;
    case Kind::U32:
      M.Ints.push_back({Pos, 4});
      Pos += 4;
      break;
    case Kind::U64:
      M.Ints.push_back({Pos, 8});
      Pos += 8;
      break;
    case Kind::Str:
      M.Ints.push_back({Pos, 4});
      Pos += 4 + readLE(Body, Pos, 4);
      break;
    case Kind::Shape: {
      M.Ints.push_back({Pos, 4});
      std::uint64_t Rank = readLE(Body, Pos, 4);
      Pos += 4;
      for (std::uint64_t I = 0; I != Rank; ++I, Pos += 8)
        M.Ints.push_back({Pos, 8});
      break;
    }
    case Kind::Payload: {
      M.Ints.push_back({Pos, 8});
      std::uint64_t N = readLE(Body, Pos, 8);
      M.PadBegin = Pos + 8;
      M.PadEnd = Body.size() - N * 8;
      break;
    }
    }
  }
  return M;
}

//===----------------------------------------------------------------------===//
// Mutators
//===----------------------------------------------------------------------===//

using Rng = std::mt19937_64;

/// A value a lying length/count field might carry.
std::uint64_t lie(Rng &R, std::uint64_t Was) {
  switch (R() % 8) {
  case 0:
    return 0;
  case 1:
    return Was + 1;
  case 2:
    return Was - 1;
  case 3:
    return Was * 2 + 64;
  case 4:
    return ~std::uint64_t(0);
  case 5:
    return std::uint64_t(1) << (R() % 64);
  case 6:
    return 0x7FFFFFFF;
  default:
    return R();
  }
}

void writeLE(Bytes &B, std::size_t Off, std::size_t Width, std::uint64_t V) {
  for (std::size_t I = 0; I != Width; ++I)
    B[Off + I] = static_cast<std::uint8_t>(V >> (8 * I));
}

/// One random mutation of \p In, whose integer fields are \p Ints and whose
/// pad is [PadBegin, PadEnd). Never returns \p In unchanged.
Bytes mutate(const Bytes &In, const std::vector<IntField> &Ints,
             std::size_t PadBegin, std::size_t PadEnd, Rng &R) {
  Bytes B = In;
  for (;;) {
    switch (R() % 5) {
    case 0: // Bit flips.
      if (B.empty())
        continue;
      for (int N = 1 + static_cast<int>(R() % 4); N; --N)
        B[R() % B.size()] ^= static_cast<std::uint8_t>(1u << (R() % 8));
      break;
    case 1: { // Byte insert.
      std::size_t At = R() % (B.size() + 1);
      Bytes Ins(1 + R() % 8);
      for (std::uint8_t &X : Ins)
        X = static_cast<std::uint8_t>(R());
      B.insert(B.begin() + At, Ins.begin(), Ins.end());
      break;
    }
    case 2: { // Byte delete.
      if (B.empty())
        continue;
      std::size_t At = R() % B.size();
      std::size_t N = std::min<std::size_t>(1 + R() % 8, B.size() - At);
      B.erase(B.begin() + At, B.begin() + At + N);
      break;
    }
    case 3: { // A lying length, count, rank or scalar field.
      if (Ints.empty())
        continue;
      const IntField &F = Ints[R() % Ints.size()];
      writeLE(B, F.Off, F.Width, lie(R, readLE(B, F.Off, F.Width)));
      break;
    }
    case 4: // A non-zero pad byte.
      if (PadBegin == PadEnd)
        continue;
      B[PadBegin + R() % (PadEnd - PadBegin)] =
          static_cast<std::uint8_t>(1 + R() % 255);
      break;
    }
    if (B != In)
      return B;
  }
}

//===----------------------------------------------------------------------===//
// Level 1: decoders reject or round-trip
//===----------------------------------------------------------------------===//

template <class T> bool rejectsOrReencodes(const Bytes &B) {
  T V;
  return !T::decode(B.data(), B.size(), V) || V.encode() == B;
}

/// Empty when every body decoder rejects \p B or re-encodes it exactly;
/// otherwise the name of the first decoder that does neither.
std::string nonCanonicalDecoder(const Bytes &B) {
  if (!rejectsOrReencodes<PlanRequest>(B))
    return "PlanRequest";
  if (!rejectsOrReencodes<ExecuteRequest>(B))
    return "ExecuteRequest";
  if (!rejectsOrReencodes<PlanResponse>(B))
    return "PlanResponse";
  if (!rejectsOrReencodes<ExecuteResponse>(B))
    return "ExecuteResponse";
  if (!rejectsOrReencodes<StatsResponse>(B))
    return "StatsResponse";
  if (!rejectsOrReencodes<ErrorBody>(B))
    return "ErrorBody";
  return "";
}

std::string hex(const Bytes &B) {
  static const char *Digits = "0123456789abcdef";
  std::string S;
  for (std::uint8_t X : B) {
    S += Digits[X >> 4];
    S += Digits[X & 15];
  }
  return S;
}

TEST(FrameFuzz, BodyDecodersRejectOrReencodeExactly) {
  Rng R(0x5EED0001);
  for (const Seed &S : seeds()) {
    ASSERT_EQ(nonCanonicalDecoder(S.Body), "") << "seed " << hex(S.Body);
    BodyMap M = mapBody(S.Type, S.Body);
    for (std::size_t Cut = 0; Cut < S.Body.size(); ++Cut) {
      Bytes T(S.Body.begin(), S.Body.begin() + Cut);
      EXPECT_EQ(nonCanonicalDecoder(T), "") << "truncated: " << hex(T);
    }
    for (int I = 0; I != 20000; ++I) {
      Bytes B = mutate(S.Body, M.Ints, M.PadBegin, M.PadEnd, R);
      std::string Bad = nonCanonicalDecoder(B);
      ASSERT_EQ(Bad, "") << "type " << static_cast<unsigned>(S.Type)
                         << " mutation " << I << ": " << hex(B);
    }
  }
}

TEST(FrameFuzz, HeaderDecoderRejectsOrReencodesExactly) {
  Rng R(0x5EED0002);
  Bytes Valid = frameBytes(MsgType::ExecuteReq, 77, Bytes(40));
  Valid.resize(kHeaderBytes);
  for (int I = 0; I != 20000; ++I) {
    Bytes B = mutate(Valid, {{4, 2}, {6, 2}, {12, 4}}, 0, 0, R);
    B.resize(kHeaderBytes);
    FrameHeader H;
    if (!FrameHeader::decode(B.data(), H))
      continue;
    Bytes Back(kHeaderBytes);
    H.encode(Back.data());
    ASSERT_EQ(Back, B) << "mutation " << I;
  }
}

//===----------------------------------------------------------------------===//
// Level 2: a live server under mutated frames
//===----------------------------------------------------------------------===//

class FrameFuzzServer : public ::testing::Test {
protected:
  void SetUp() override {
    Path = "/tmp/spl-frame-fuzz-" + std::to_string(getpid()) + ".sock";
    telemetry::setMetricsEnabled(true);
    startServer();
    // The reference every post-mutation round trip must reproduce.
    Diagnostics Diags;
    runtime::PlannerOptions PO;
    PO.UseWisdom = false;
    PO.Evaluator = "opcount";
    runtime::Planner Local(Diags, PO);
    auto Ref = Local.plan(vmSpec("fft", 16));
    ASSERT_TRUE(Ref) << Diags.dump();
    X.resize(3 * 32);
    for (std::size_t I = 0; I != X.size(); ++I)
      X[I] = static_cast<double>(I % 7) * 0.375 - 1.0;
    Want.resize(X.size());
    Ref->executeBatch(Want.data(), X.data(), 3, 1);
  }

  void TearDown() override {
    if (Srv)
      Srv->stop();
    telemetry::setMetricsEnabled(false);
    ::unlink(Path.c_str());
  }

  void startServer() {
    ServerOptions O;
    O.SocketPath = Path;
    O.Workers = 2;
    O.MaxTransformSize = 64;
    O.MaxFrameBytes = 64 << 10;
    O.Planner.UseWisdom = false;
    O.Planner.Evaluator = "opcount";
    Srv = std::make_unique<Server>(O);
    ASSERT_TRUE(Srv->start()) << Srv->diagnostics().dump();
  }

  /// Sends \p Raw on a fresh connection, half-closes it, and checks every
  /// answer until the server hangs up. Returns "" or what went wrong; sets
  /// \p SawShutdown when a mutated frame was still a valid SHUTDOWN.
  std::string throwFrame(const Bytes &Raw, bool &SawShutdown) {
    std::string Err;
    int Fd = connectUnix(Path, Err);
    if (Fd < 0)
      return "connect: " + Err;
    timeval TV{10, 0}; // A hang shows up as a failed read, not a stuck test.
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
    // The server may hang up mid-send on a bad header; that is allowed.
    ::send(Fd, Raw.data(), Raw.size(), MSG_NOSIGNAL);
    ::shutdown(Fd, SHUT_WR);
    std::string Why;
    for (;;) {
      Frame F;
      IoStatus St = readFrame(Fd, kDefaultMaxFrameBytes, F);
      if (St == IoStatus::Closed)
        break;
      if (St != IoStatus::Ok) {
        Why = "no hang-up: read status " + std::to_string(int(St));
        break;
      }
      Why = checkAnswer(F, SawShutdown);
      if (!Why.empty())
        break;
    }
    ::close(Fd);
    return Why;
  }

  static std::string checkAnswer(const Frame &F, bool &SawShutdown) {
    const std::uint8_t *D = F.Body.data();
    std::size_t N = F.Body.size();
    switch (F.Type) {
    case MsgType::ErrorResp: {
      ErrorBody E;
      return ErrorBody::decode(D, N, E) ? "" : "undecodable error body";
    }
    case MsgType::PlanResp: {
      PlanResponse P;
      return PlanResponse::decode(D, N, P) ? "" : "undecodable plan response";
    }
    case MsgType::ExecuteResp: {
      ExecuteResponse E;
      return ExecuteResponse::decode(D, N, E) ? ""
                                              : "undecodable execute response";
    }
    case MsgType::StatsResp: {
      StatsResponse S;
      return StatsResponse::decode(D, N, S) ? "" : "undecodable stats";
    }
    case MsgType::ShutdownResp:
      SawShutdown = true;
      [[fallthrough]];
    case MsgType::PingResp:
      return N == 0 ? "" : "non-empty ping/shutdown response";
    default:
      return "unexpected response type " +
             std::to_string(static_cast<unsigned>(F.Type));
    }
  }

  /// A well-formed execute on a fresh connection, compared bit for bit.
  std::string roundTrip() {
    Client C;
    if (!C.connect(Path))
      return "connect: " + C.lastError();
    std::vector<double> Y(X.size(), -7.0);
    if (!C.executeRetryBusy(vmSpec("fft", 16), Y.data(), X.data(), 3, 32))
      return "execute: " + C.lastError();
    return std::memcmp(Y.data(), Want.data(), Y.size() * sizeof(double))
               ? "result differs from the in-process plan"
               : "";
  }

  /// One mutated frame, then the health check.
  void attack(const Bytes &Raw, const std::string &What) {
    bool SawShutdown = false;
    std::string Why = throwFrame(Raw, SawShutdown);
    ASSERT_EQ(Why, "") << What << ": " << hex(Raw);
    if (SawShutdown) { // A still-valid SHUTDOWN drains the daemon: restart.
      Srv->stop();
      startServer();
    }
    Why = roundTrip();
    ASSERT_EQ(Why, "") << "after " << What << ": " << hex(Raw);
  }

  std::string Path;
  std::unique_ptr<Server> Srv;
  std::vector<double> X, Want;
};

TEST_F(FrameFuzzServer, EveryTruncationIsAnsweredOrHungUp) {
  std::uint32_t Id = 1;
  for (const Seed &S : seeds()) {
    Bytes Raw = frameBytes(S.Type, Id++, S.Body);
    for (std::size_t Cut = 0; Cut < Raw.size(); ++Cut)
      attack(Bytes(Raw.begin(), Raw.begin() + Cut),
             "type " + std::to_string(static_cast<unsigned>(S.Type)) +
                 " cut at " + std::to_string(Cut));
  }
}

TEST_F(FrameFuzzServer, MutatedFramesAreAnsweredOrHungUp) {
  Rng R(0x5EED0003);
  std::uint32_t Id = 1;
  std::vector<Seed> All = seeds();
  for (int I = 0; I != 3000; ++I) {
    const Seed &S = All[I % All.size()];
    Bytes Raw = frameBytes(S.Type, Id++, S.Body);
    BodyMap M = mapBody(S.Type, S.Body);
    std::vector<IntField> Ints = {{12, 4}}; // BodyLen.
    for (const IntField &F : M.Ints)
      Ints.push_back({F.Off + kHeaderBytes, F.Width});
    std::size_t PadB = M.PadBegin ? M.PadBegin + kHeaderBytes : 0;
    std::size_t PadE = M.PadEnd ? M.PadEnd + kHeaderBytes : 0;
    if (M.PadBegin == M.PadEnd)
      PadB = PadE = 0;
    attack(mutate(Raw, Ints, PadB, PadE, R),
           "type " + std::to_string(static_cast<unsigned>(S.Type)) +
               " mutation " + std::to_string(I));
  }
}

//===----------------------------------------------------------------------===//
// Regressions the fuzzer found
//===----------------------------------------------------------------------===//

TEST(FrameFuzz, RegressionFallbackByteAboveOneIsRejected) {
  // Found on the v4 codec (seed 0x5EED0001, PlanResp mutation 112): a bit
  // flip turned the Fallback byte into 0x15, which decoded as true and
  // re-encoded as 0x01, so two byte strings meant one response.
  PlanResponse PR;
  PR.Key = "k";
  PR.Fallback = true;
  Bytes B = PR.encode();
  const std::size_t At = 4 + 1 + 4 + 8 + 8; // Key, empty Backend, two i64s.
  ASSERT_EQ(B[At], 1u);
  B[At] = 0x15;
  PlanResponse Out;
  EXPECT_FALSE(PlanResponse::decode(B.data(), B.size(), Out));
  B[At] = 0;
  ASSERT_TRUE(PlanResponse::decode(B.data(), B.size(), Out));
  EXPECT_FALSE(Out.Fallback);
}

} // namespace
