//===- service/Protocol.cpp - spld wire protocol ------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include <cstring>

using namespace spl;
using namespace spl::service;

const char *spl::service::statusName(Status S) {
  // Indexed by value; 1 is not a status.
  static const char *const Names[] = {
      "ok",          "unknown",        "bad-request",
      "bad-spec",    "plan-failed",    "exec-failed",
      "busy",        "too-large",      "shutting-down",
      "protocol-error", "deadline-exceeded"};
  const auto V = static_cast<std::uint32_t>(S);
  return V < std::size(Names) ? Names[V] : "unknown";
}

// Status values 0..5 are tools/ExitCodes.h by construction (the library
// cannot include tools/ headers without inverting the layering; spld
// static_asserts the correspondence). Service-only codes collapse onto the
// execution-failure stage, except DeadlineExceeded, which owns the
// ExitDeadline stage (6) so scripts can branch on "too slow".
int spl::service::statusToExitCode(Status S) {
  if (S == Status::DeadlineExceeded)
    return 6;
  std::uint32_t V = static_cast<std::uint32_t>(S);
  return V <= 5 ? static_cast<int>(V) : 5;
}

//===----------------------------------------------------------------------===//
// FrameHeader
//===----------------------------------------------------------------------===//

void FrameHeader::encode(std::uint8_t Out[kHeaderBytes]) const {
  std::vector<std::uint8_t> Buf;
  Buf.reserve(kHeaderBytes);
  WireWriter W(Buf);
  W.u32(kMagic);
  W.u16(kProtocolVersion);
  W.u16(static_cast<std::uint16_t>(Type));
  W.u32(RequestId);
  W.u32(BodyLen);
  std::memcpy(Out, Buf.data(), kHeaderBytes);
}

bool FrameHeader::decode(const std::uint8_t In[kHeaderBytes], FrameHeader &H) {
  WireReader R(In, kHeaderBytes);
  std::uint32_t Magic = R.u32();
  std::uint16_t Version = R.u16();
  H.Type = static_cast<MsgType>(R.u16());
  H.RequestId = R.u32();
  H.BodyLen = R.u32();
  return R.ok() && Magic == kMagic && Version == kProtocolVersion;
}

//===----------------------------------------------------------------------===//
// WireSpec
//===----------------------------------------------------------------------===//

runtime::PlanSpec WireSpec::toSpec(bool &OK) const {
  runtime::PlanSpec S;
  S.Transform = Transform;
  S.Size = Size;
  S.Datatype = Datatype;
  S.UnrollThreshold = UnrollThreshold;
  S.MaxLeaf = MaxLeaf;
  S.Shape = Shape;
  OK = runtime::parseBackend(Backend, S.Want) &&
       runtime::parseCodegenMode(Codegen, S.Codegen);
  return S;
}

WireSpec WireSpec::fromSpec(const runtime::PlanSpec &Spec) {
  WireSpec W;
  W.Transform = Spec.Transform;
  W.Size = Spec.Size;
  W.Datatype = Spec.Datatype;
  W.UnrollThreshold = Spec.UnrollThreshold;
  W.MaxLeaf = Spec.MaxLeaf;
  W.Backend = runtime::backendName(Spec.Want);
  W.Codegen = runtime::codegenModeName(Spec.Codegen);
  W.Shape = Spec.Shape;
  return W;
}

void WireSpec::encode(WireWriter &W) const {
  W.str(Transform);
  W.i64(Size);
  W.str(Datatype);
  W.i64(UnrollThreshold);
  W.i64(MaxLeaf);
  W.str(Backend);
  W.str(Codegen);
  W.u32(static_cast<std::uint32_t>(Shape.size()));
  for (std::int64_t D : Shape)
    W.i64(D);
}

bool WireSpec::decode(WireReader &R, WireSpec &Out) {
  Out.Transform = R.str();
  Out.Size = R.i64();
  Out.Datatype = R.str();
  Out.UnrollThreshold = R.i64();
  Out.MaxLeaf = R.i64();
  Out.Backend = R.str();
  Out.Codegen = R.str();
  std::uint32_t Rank = R.u32();
  if (!R.ok() || Rank > kMaxShapeRank)
    return false;
  Out.Shape.resize(Rank);
  for (std::int64_t &D : Out.Shape)
    D = R.i64();
  return R.ok();
}

//===----------------------------------------------------------------------===//
// Bodies
//===----------------------------------------------------------------------===//

std::vector<std::uint8_t> PlanRequest::encode() const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.u32(DeadlineMs);
  Spec.encode(W);
  return Buf;
}

bool PlanRequest::decode(const std::uint8_t *Data, std::size_t Len,
                         PlanRequest &Out) {
  WireReader R(Data, Len);
  Out.DeadlineMs = R.u32();
  return R.ok() && WireSpec::decode(R, Out.Spec) && R.remaining() == 0;
}

std::vector<std::uint8_t> PlanResponse::encode() const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.str(Key);
  W.str(Backend);
  W.i64(VectorLen);
  W.f64(Cost);
  W.u8(Fallback ? 1 : 0);
  W.str(FallbackReason);
  W.str(FormulaText);
  return Buf;
}

bool PlanResponse::decode(const std::uint8_t *Data, std::size_t Len,
                          PlanResponse &Out) {
  WireReader R(Data, Len);
  Out.Key = R.str();
  Out.Backend = R.str();
  Out.VectorLen = R.i64();
  Out.Cost = R.f64();
  std::uint8_t Fallback = R.u8();
  Out.Fallback = Fallback != 0;
  Out.FallbackReason = R.str();
  Out.FormulaText = R.str();
  // Only 0 and 1 re-encode to themselves; any other byte is corruption.
  return R.ok() && Fallback <= 1 && R.remaining() == 0;
}

namespace {

/// Ends a prefix: the payload length N, then zero pad to the payload.
std::vector<std::uint8_t> &padPrefix(std::vector<std::uint8_t> &Buf,
                                     std::uint64_t N) {
  WireWriter(Buf).u64(N);
  Buf.resize((Buf.size() + kPayloadAlign - 1) / kPayloadAlign * kPayloadAlign);
  return Buf;
}

/// Reads the end of a prefix from \p R and checks the rest of the
/// \p BodyLen-byte body is exactly the N payload doubles. Returns the
/// payload's body offset, or 0.
std::size_t payloadOffset(WireReader &R, std::size_t BodyLen) {
  const std::uint64_t N = R.u64();
  while (R.ok() && R.pos() % kPayloadAlign != 0)
    if (R.u8() != 0)
      return 0; // Pad bytes must be zero.
  if (!R.ok() || R.pos() > BodyLen)
    return 0;
  // N is untrusted: compare by division so N * 8 cannot wrap.
  const std::size_t Rest = BodyLen - R.pos();
  return Rest % 8 == 0 && N == Rest / 8 ? R.pos() : 0;
}

} // namespace

std::vector<std::uint8_t>
ExecuteRequestPrefix::encodePrefix(std::uint64_t N) const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.u32(DeadlineMs);
  Spec.encode(W);
  W.i64(Count);
  W.u32(static_cast<std::uint32_t>(Threads));
  return padPrefix(Buf, N);
}

std::size_t ExecuteRequestPrefix::decodePrefix(const std::uint8_t *Data,
                                               std::size_t Avail,
                                               std::size_t BodyLen) {
  WireReader R(Data, Avail);
  DeadlineMs = R.u32();
  if (!R.ok() || !WireSpec::decode(R, Spec))
    return 0;
  Count = R.i64();
  Threads = static_cast<std::int32_t>(R.u32());
  return payloadOffset(R, BodyLen);
}

std::vector<std::uint8_t>
ExecuteResponsePrefix::encodePrefix(std::uint64_t N) const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.i64(Count);
  W.i64(VectorLen);
  return padPrefix(Buf, N);
}

std::size_t ExecuteResponsePrefix::decodePrefix(const std::uint8_t *Data,
                                                std::size_t Avail,
                                                std::size_t BodyLen) {
  WireReader R(Data, Avail);
  Count = R.i64();
  VectorLen = R.i64();
  return payloadOffset(R, BodyLen);
}

std::vector<std::uint8_t> StatsResponse::encode() const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.str(Json);
  return Buf;
}

bool StatsResponse::decode(const std::uint8_t *Data, std::size_t Len,
                           StatsResponse &Out) {
  WireReader R(Data, Len);
  Out.Json = R.str();
  return R.ok() && R.remaining() == 0;
}

std::vector<std::uint8_t> ErrorBody::encode() const {
  std::vector<std::uint8_t> Buf;
  WireWriter W(Buf);
  W.u32(static_cast<std::uint32_t>(Code));
  W.str(Message);
  return Buf;
}

bool ErrorBody::decode(const std::uint8_t *Data, std::size_t Len,
                       ErrorBody &Out) {
  WireReader R(Data, Len);
  Out.Code = static_cast<Status>(R.u32());
  Out.Message = R.str();
  return R.ok() && R.remaining() == 0;
}
