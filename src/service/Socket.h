//===- service/Socket.h - Unix-domain stream transport ----------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Thin POSIX wrappers the service layer builds on: listen/connect on a
/// Unix-domain stream socket, EINTR-safe full reads/writes, and framed
/// message I/O (header validation + body-size caps) in terms of
/// service/Protocol.h. Every failure mode is a returned status — no
/// exceptions, no errno spelunking for callers. SIGPIPE is never raised
/// (MSG_NOSIGNAL); a peer hangup surfaces as Closed.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SERVICE_SOCKET_H
#define SPL_SERVICE_SOCKET_H

#include "service/Protocol.h"

#include <cstdint>
#include <new>
#include <span>
#include <string>
#include <vector>

namespace spl {
namespace service {

/// Outcome of one framed read/write.
enum class IoStatus {
  Ok,
  Closed,   ///< Orderly EOF (peer closed between frames) or EPIPE.
  Error,    ///< Syscall failure or a truncated frame mid-message.
  BadFrame, ///< Header failed validation (magic/version) — unrecoverable.
  TooBig,   ///< Body length exceeds the caller's cap; body was not read.
};

/// Allocates kPayloadAlign-aligned storage and default-initializes on
/// resize(), so a FrameBuffer is never zero-filled.
template <class T> struct BodyAllocator {
  using value_type = T;
  BodyAllocator() = default;
  template <class U> BodyAllocator(const BodyAllocator<U> &) {}
  T *allocate(std::size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(kPayloadAlign)));
  }
  void deallocate(T *P, std::size_t) {
    ::operator delete(P, std::align_val_t(kPayloadAlign));
  }
  template <class U> void construct(U *P) { ::new (static_cast<void *>(P)) U; }
  bool operator==(const BodyAllocator &) const = default;
};

/// A frame body. Payload offsets are kPayloadAlign multiples, so an
/// execute payload in a FrameBuffer is an aligned array of doubles.
using FrameBuffer = std::vector<std::uint8_t, BodyAllocator<std::uint8_t>>;

/// One received frame.
struct Frame {
  MsgType Type = MsgType::PingReq;
  std::uint32_t RequestId = 0;
  FrameBuffer Body;
};

/// Creates, binds and listens on a Unix-domain stream socket at \p Path,
/// replacing any stale socket file. Returns the listening fd, or -1 with
/// \p Err describing the failing step.
int listenUnix(const std::string &Path, int Backlog, std::string &Err);

/// Connects to the daemon socket at \p Path. Returns the fd, or -1 with
/// \p Err set.
int connectUnix(const std::string &Path, std::string &Err);

/// Reads exactly \p Len bytes. Returns Ok, Closed (clean EOF at offset 0),
/// or Error (mid-buffer EOF or syscall failure).
IoStatus recvAll(int Fd, void *Data, std::size_t Len);

/// Sends one frame whose body is \p Prefix followed by \p Payload, with a
/// single gathering sendmsg when the socket takes it all at once (EINTR-
/// safe, MSG_NOSIGNAL); neither part is copied. False on any error.
bool writeFrame(int Fd, MsgType Type, std::uint32_t RequestId,
                std::span<const std::uint8_t> Prefix,
                const void *Payload = nullptr, std::size_t PayloadLen = 0);

/// Reads and validates one header: Ok, Closed, Error, or BadFrame (wrong
/// magic or version; the stream cannot be resynchronized).
IoStatus readHeader(int Fd, FrameHeader &H);

/// Reads the body \p H announces into \p Body, reusing its allocation. A
/// body over \p MaxBodyBytes is consumed and dropped (TooBig), so the
/// caller can answer with a typed error and keep the connection.
IoStatus readBody(int Fd, const FrameHeader &H, std::uint32_t MaxBodyBytes,
                  FrameBuffer &Body);

/// readHeader + readBody.
IoStatus readFrame(int Fd, std::uint32_t MaxBodyBytes, Frame &Out);

} // namespace service
} // namespace spl

#endif // SPL_SERVICE_SOCKET_H
