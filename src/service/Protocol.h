//===- service/Protocol.h - spld wire protocol ------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol spoken between the spld plan-serving daemon and its
/// clients (service::Client, `splrun --connect`): length-prefixed binary
/// frames over a Unix-domain stream socket.
///
///   +--------+---------+--------+-----------+---------+=========+
///   | magic  | version | type   | requestId | bodyLen | body    |
///   | u32    | u16     | u16    | u32       | u32     | bytes   |
///   +--------+---------+--------+-----------+---------+=========+
///
/// Integers are little-endian fixed width, doubles raw IEEE-754 bits,
/// strings u32 length + bytes. A bad magic or version kills the connection
/// (a corrupt stream cannot be resynchronized); an oversized bodyLen draws
/// a typed TOO_LARGE. Responses echo the client-chosen requestId, so
/// clients may pipeline. Status codes extend tools/ExitCodes.h; see
/// docs/SERVICE.md for the full catalogue.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SERVICE_PROTOCOL_H
#define SPL_SERVICE_PROTOCOL_H

#include "runtime/Plan.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

namespace spl {
namespace service {

/// Frame magic: "SPLD" read as a little-endian u32.
constexpr std::uint32_t kMagic = 0x444C5053u;

/// The one protocol revision spoken. A header with any other version is
/// refused with a PROTOCOL error and a hang-up. Plan and execute request
/// bodies lead with a u32 DeadlineMs (the server reads it before decoding),
/// the wire spec ends with an N-D shape block, and execute payloads start
/// at a kPayloadAlign body offset behind zero pad bytes, so an aligned body
/// buffer holds an aligned payload both ends use in place.
constexpr std::uint16_t kProtocolVersion = 5;

/// Fixed serialized header size in bytes.
constexpr std::size_t kHeaderBytes = 16;

/// Default cap on one frame's body (requests and responses). The server
/// can lower it (ServerOptions::MaxFrameBytes); execute payloads above the
/// cap come back as TOO_LARGE.
constexpr std::uint32_t kDefaultMaxFrameBytes = 64u << 20;

/// Body offset granularity of an execute payload (and the alignment of
/// every received frame body, see service::FrameBuffer).
constexpr std::size_t kPayloadAlign = 64;

/// Frame type tags. Requests are < 100, responses >= 100.
enum class MsgType : std::uint16_t {
  PlanReq = 1,     ///< PlanRequest: materialize (or memo-hit) a plan.
  ExecuteReq = 2,  ///< ExecuteRequest: run a batch through a plan.
  StatsReq = 3,    ///< Scrape the telemetry catalogue as JSON.
  PingReq = 4,     ///< Liveness/latency probe, no body.
  ShutdownReq = 5, ///< Ask the daemon to drain and exit.

  PlanResp = 101,
  ExecuteResp = 102,
  StatsResp = 103,
  PingResp = 104,
  ShutdownResp = 105,
  ErrorResp = 199, ///< ErrorBody: any request can fail with this.
};

/// Typed failure codes. Values 0..5 are tools/ExitCodes.h verbatim so a CLI
/// relaying a server error can exit with the same stage code users already
/// script against; 6+ are service-only.
enum class Status : std::uint32_t {
  Ok = 0,
  BadRequest = 2,   ///< Malformed/invalid request fields (ExitUsage).
  BadSpec = 3,      ///< PlanSpec validation rejected it (ExitParse).
  PlanFailed = 4,   ///< Search/compile failed server-side (ExitCompile).
  ExecFailed = 5,   ///< Execution failed server-side (ExitExec).
  Busy = 6,         ///< Admission control: queue or quota full; retry.
  TooLarge = 7,     ///< Frame or transform exceeds the server's caps.
  ShuttingDown = 8, ///< Server is draining; no new work accepted.
  Protocol = 9,     ///< Framing violation; the connection is dropped.
  DeadlineExceeded = 10, ///< The request's deadline expired.
};

/// Stable lowercase token for a status ("ok", "busy", ...).
const char *statusName(Status S);

/// Maps a status onto the tools/ExitCodes.h stage a CLI should exit with.
/// Service-only codes (Busy/TooLarge/ShuttingDown/Protocol) map to the
/// execution-failure stage; DeadlineExceeded gets its own scriptable stage
/// (ExitDeadline = 6) so callers can tell "too slow" from "failed".
int statusToExitCode(Status S);

//===----------------------------------------------------------------------===//
// Primitive serialization
//===----------------------------------------------------------------------===//

/// Appends little-endian primitives to a byte buffer.
class WireWriter {
public:
  explicit WireWriter(std::vector<std::uint8_t> &Buf) : Buf(Buf) {}

  void u8(std::uint8_t V) { le(V); }
  void u16(std::uint16_t V) { le(V); }
  void u32(std::uint32_t V) { le(V); }
  void u64(std::uint64_t V) { le(V); }
  void i64(std::int64_t V) { le(static_cast<std::uint64_t>(V)); }
  void f64(double V) { le(std::bit_cast<std::uint64_t>(V)); }
  void str(const std::string &S) {
    u32(static_cast<std::uint32_t>(S.size()));
    Buf.insert(Buf.end(), S.begin(), S.end());
  }

private:
  template <class T> void le(T V) {
    for (std::size_t I = 0; I != sizeof(T); ++I)
      Buf.push_back(static_cast<std::uint8_t>(V >> (8 * I)));
  }

  std::vector<std::uint8_t> &Buf;
};

/// Bounds-checked little-endian reads over a byte buffer. Every accessor
/// returns a value and flips ok() to false on underrun; callers check once
/// at the end (the project builds without exceptions).
class WireReader {
public:
  WireReader(const std::uint8_t *Data, std::size_t Len)
      : Data(Data), Len(Len) {}

  bool ok() const { return OK; }
  std::size_t pos() const { return Pos; }
  std::size_t remaining() const { return Len - Pos; }

  std::uint8_t u8() { return le<std::uint8_t>(); }
  std::uint16_t u16() { return le<std::uint16_t>(); }
  std::uint32_t u32() { return le<std::uint32_t>(); }
  std::uint64_t u64() { return le<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    std::uint32_t N = u32();
    if (!need(N))
      return {};
    std::string S(reinterpret_cast<const char *>(Data + Pos), N);
    Pos += N;
    return S;
  }

private:
  template <class T> T le() {
    if (!need(sizeof(T)))
      return 0;
    T V = 0;
    for (std::size_t I = 0; I != sizeof(T); ++I)
      V |= static_cast<T>(static_cast<T>(Data[Pos + I]) << (8 * I));
    Pos += sizeof(T);
    return V;
  }
  bool need(std::size_t N) {
    if (!OK || Len - Pos < N) {
      OK = false;
      return false;
    }
    return true;
  }

  const std::uint8_t *Data;
  std::size_t Len;
  std::size_t Pos = 0;
  bool OK = true;
};

//===----------------------------------------------------------------------===//
// Frames
//===----------------------------------------------------------------------===//

/// Parsed frame header. Magic and version are not fields: encode() writes
/// kMagic and kProtocolVersion, and decode() accepts nothing else.
struct FrameHeader {
  MsgType Type = MsgType::PingReq;
  std::uint32_t RequestId = 0;
  std::uint32_t BodyLen = 0;

  /// Serializes into exactly kHeaderBytes.
  void encode(std::uint8_t Out[kHeaderBytes]) const;

  /// Parses; false on a wrong magic or version -- the stream is
  /// unrecoverable then.
  static bool decode(const std::uint8_t In[kHeaderBytes], FrameHeader &H);
};

/// The PlanSpec fields a request carries (shared by plan and execute).
/// Mirrors runtime::PlanSpec; toSpec()/fromSpec() convert.
struct WireSpec {
  std::string Transform = "fft";
  std::int64_t Size = 0;
  std::string Datatype;
  std::int64_t UnrollThreshold = 16;
  std::int64_t MaxLeaf = 16;
  std::string Backend = "auto"; ///< backendName() token.
  std::string Codegen = "auto"; ///< codegenModeName() token.
  /// Row-major N-D shape (empty = 1-D of Size). When non-empty the server
  /// plans the row-column transform and Size is ignored in favour of the
  /// shape product. Rank is capped at kMaxShapeRank on decode.
  std::vector<std::int64_t> Shape;

  runtime::PlanSpec toSpec(bool &OK) const;
  static WireSpec fromSpec(const runtime::PlanSpec &Spec);

  void encode(WireWriter &W) const;
  static bool decode(WireReader &R, WireSpec &Out);
};

/// Decode-side cap on WireSpec::Shape rank; the planner's own limit is
/// lower, so hitting this means a hostile frame, not a real workload.
constexpr std::uint32_t kMaxShapeRank = 16;

/// PlanReq body: DeadlineMs, then the spec.
struct PlanRequest {
  /// Remaining client budget in milliseconds (0 = unbounded). The clock
  /// starts when the server reads the frame; queue time counts against
  /// it, so a request that aged out in the queue is rejected unexecuted.
  std::uint32_t DeadlineMs = 0;
  WireSpec Spec;

  std::vector<std::uint8_t> encode() const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     PlanRequest &Out);
};

/// PlanResp body: the server-side plan's identity and placement.
struct PlanResponse {
  std::string Key;         ///< PlanSpec::key() of the served plan.
  std::string Backend;     ///< Tier the degradation chain landed on.
  std::int64_t VectorLen = 0;
  double Cost = 0;
  bool Fallback = false;   ///< One byte on the wire, 0 or 1.
  std::string FallbackReason;
  std::string FormulaText;

  std::vector<std::uint8_t> encode() const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     PlanResponse &Out);
};

//===----------------------------------------------------------------------===//
// Execute bodies: the prefix codec
//===----------------------------------------------------------------------===//
//
// An execute body is a prefix -- the message's fields, a u64 payload length
// N, and zero pad up to the next kPayloadAlign body offset -- followed by N
// raw doubles. encodePrefix/decodePrefix are the only code that lays out or
// parses those fields. The server and client move payloads around them
// without copying; ExecuteRequest/ExecuteResponse are copying wrappers.

/// ExecuteReq fields. The spec rides along (rather than a plan handle) so
/// the request is stateless: the registry turns repeats into memo hits.
struct ExecuteRequestPrefix {
  /// Remaining client budget in milliseconds (0 = unbounded); see
  /// PlanRequest::DeadlineMs. Encoded first.
  std::uint32_t DeadlineMs = 0;
  WireSpec Spec;
  std::int64_t Count = 1;   ///< Vectors in the payload.
  std::int32_t Threads = 1; ///< Requested batch workers (server-capped).

  /// The prefix of a body carrying \p N payload doubles.
  std::vector<std::uint8_t> encodePrefix(std::uint64_t N) const;
  /// Parses the prefix from the first \p Avail bytes of a \p BodyLen-byte
  /// body. Returns the payload's body offset when the fields and a zero pad
  /// fit in \p Avail and exactly N doubles fill the rest; 0 otherwise.
  std::size_t decodePrefix(const std::uint8_t *Data, std::size_t Avail,
                           std::size_t BodyLen);
};

/// ExecuteResp fields: the shape of the transformed vectors that follow.
struct ExecuteResponsePrefix {
  std::int64_t Count = 0;
  std::int64_t VectorLen = 0;

  /// As ExecuteRequestPrefix's; always kExecuteRespPrefixBytes long.
  std::vector<std::uint8_t> encodePrefix(std::uint64_t N) const;
  std::size_t decodePrefix(const std::uint8_t *Data, std::size_t Avail,
                           std::size_t BodyLen);
};

/// Count, VectorLen and N, zero-padded to the payload.
constexpr std::size_t kExecuteRespPrefixBytes = kPayloadAlign;

/// A whole execute body with the payload copied into Data: the prefix
/// codec for callers that hold payloads in vectors.
template <class Prefix> struct WholeBody : Prefix {
  std::vector<double> Data; ///< Count * vectorLen doubles.

  std::vector<std::uint8_t> encode() const {
    std::vector<std::uint8_t> Buf = this->encodePrefix(Data.size());
    const auto *P = reinterpret_cast<const std::uint8_t *>(Data.data());
    Buf.insert(Buf.end(), P, P + Data.size() * 8);
    return Buf;
  }
  static bool decode(const std::uint8_t *Body, std::size_t Len,
                     WholeBody &Out) {
    const std::size_t Off = Out.decodePrefix(Body, Len, Len);
    if (!Off)
      return false;
    Out.Data.resize((Len - Off) / 8);
    std::copy(Body + Off, Body + Len,
              reinterpret_cast<std::uint8_t *>(Out.Data.data()));
    return true;
  }
};
using ExecuteRequest = WholeBody<ExecuteRequestPrefix>;
using ExecuteResponse = WholeBody<ExecuteResponsePrefix>;

/// StatsResp body: the metric catalogue rendered by metricsJson(), plus
/// the daemon's own identity line.
struct StatsResponse {
  std::string Json;

  std::vector<std::uint8_t> encode() const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     StatsResponse &Out);
};

/// ErrorResp body.
struct ErrorBody {
  Status Code = Status::Ok;
  std::string Message;

  std::vector<std::uint8_t> encode() const;
  static bool decode(const std::uint8_t *Data, std::size_t Len,
                     ErrorBody &Out);
};

} // namespace service
} // namespace spl

#endif // SPL_SERVICE_PROTOCOL_H
