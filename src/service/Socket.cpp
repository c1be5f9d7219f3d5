//===- service/Socket.cpp - Unix-domain stream transport ----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "service/Socket.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

using namespace spl;
using namespace spl::service;

namespace {

/// A fresh Unix stream socket plus the address for \p Path; -1 (with \p Err)
/// when the path does not fit the classic 108-byte sun_path or socket()
/// fails.
int unixSocket(const std::string &Path, sockaddr_un &Addr, std::string &Err) {
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    Err = "socket path '" + Path + "' is empty or longer than " +
          std::to_string(sizeof(Addr.sun_path) - 1) + " bytes";
    return -1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    Err = std::string("socket: ") + std::strerror(errno);
  return Fd;
}

/// Writes every byte the \p N iovecs describe, resuming after partial
/// writes (EINTR-safe, MSG_NOSIGNAL). Consumes \p Iov.
bool sendAllv(int Fd, iovec *Iov, int N) {
  while (N) {
    msghdr M{};
    M.msg_iov = Iov;
    M.msg_iovlen = static_cast<std::size_t>(N);
    ssize_t Sent = ::sendmsg(Fd, &M, MSG_NOSIGNAL);
    if (Sent < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    for (auto Left = static_cast<std::size_t>(Sent); N; ++Iov, --N) {
      if (Left < Iov->iov_len) {
        Iov->iov_base = static_cast<std::uint8_t *>(Iov->iov_base) + Left;
        Iov->iov_len -= Left;
        break;
      }
      Left -= Iov->iov_len;
    }
  }
  return true;
}

} // namespace

int spl::service::listenUnix(const std::string &Path, int Backlog,
                             std::string &Err) {
  sockaddr_un Addr;
  int Fd = unixSocket(Path, Addr, Err);
  if (Fd < 0)
    return -1;
  // A dead daemon's leftover socket file would make bind fail with
  // EADDRINUSE, but unlinking unconditionally would silently hijack the
  // path from a *live* daemon. Probe first: a successful connect() means
  // somebody is serving this path, so refuse; only a stale socket
  // (ECONNREFUSED: file exists, nobody listening) is removed. On any other
  // probe outcome leave the path alone and let bind() report the conflict.
  int Probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Probe >= 0) {
    if (::connect(Probe, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) ==
        0) {
      ::close(Probe);
      ::close(Fd);
      Err = "'" + Path +
            "' already has a live daemon listening; refusing to replace it";
      return -1;
    }
    int ProbeErrno = errno;
    ::close(Probe);
    if (ProbeErrno == ECONNREFUSED)
      ::unlink(Path.c_str());
  }
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "bind '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, Backlog) != 0) {
    Err = "listen '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    ::unlink(Path.c_str());
    return -1;
  }
  return Fd;
}

int spl::service::connectUnix(const std::string &Path, std::string &Err) {
  sockaddr_un Addr;
  int Fd = unixSocket(Path, Addr, Err);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    Err = "connect '" + Path + "': " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

IoStatus spl::service::recvAll(int Fd, void *Data, std::size_t Len) {
  std::uint8_t *P = static_cast<std::uint8_t *>(Data);
  std::size_t Got = 0;
  while (Got != Len) {
    ssize_t N = ::recv(Fd, P + Got, Len - Got, 0);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return IoStatus::Error;
    }
    if (N == 0)
      return Got == 0 ? IoStatus::Closed : IoStatus::Error;
    Got += static_cast<std::size_t>(N);
  }
  return IoStatus::Ok;
}

bool spl::service::writeFrame(int Fd, MsgType Type, std::uint32_t RequestId,
                              std::span<const std::uint8_t> Prefix,
                              const void *Payload, std::size_t PayloadLen) {
  FrameHeader H;
  H.Type = Type;
  H.RequestId = RequestId;
  H.BodyLen = static_cast<std::uint32_t>(Prefix.size() + PayloadLen);
  std::uint8_t Hdr[kHeaderBytes];
  H.encode(Hdr);
  iovec Iov[3] = {{Hdr, kHeaderBytes},
                  {const_cast<std::uint8_t *>(Prefix.data()), Prefix.size()},
                  {const_cast<void *>(Payload), PayloadLen}};
  return sendAllv(Fd, Iov, 3);
}

IoStatus spl::service::readHeader(int Fd, FrameHeader &H) {
  std::uint8_t Hdr[kHeaderBytes];
  IoStatus St = recvAll(Fd, Hdr, kHeaderBytes);
  if (St != IoStatus::Ok)
    return St;
  return FrameHeader::decode(Hdr, H) ? IoStatus::Ok : IoStatus::BadFrame;
}

IoStatus spl::service::readBody(int Fd, const FrameHeader &H,
                                std::uint32_t MaxBodyBytes,
                                FrameBuffer &Body) {
  if (H.BodyLen > MaxBodyBytes) {
    // Drain and discard so the connection stays usable for the TOO_LARGE
    // reply and whatever the client sends next.
    std::vector<std::uint8_t> Sink(64 << 10);
    std::size_t Left = H.BodyLen;
    while (Left) {
      const std::size_t Chunk = std::min(Left, Sink.size());
      if (recvAll(Fd, Sink.data(), Chunk) != IoStatus::Ok)
        return IoStatus::Error;
      Left -= Chunk;
    }
    Body.clear();
    return IoStatus::TooBig;
  }
  Body.clear(); // Growing an empty vector copies nothing.
  Body.resize(H.BodyLen);
  if (H.BodyLen == 0)
    return IoStatus::Ok;
  return recvAll(Fd, Body.data(), Body.size()) == IoStatus::Ok
             ? IoStatus::Ok
             : IoStatus::Error;
}

IoStatus spl::service::readFrame(int Fd, std::uint32_t MaxBodyBytes,
                                 Frame &Out) {
  FrameHeader H;
  IoStatus St = readHeader(Fd, H);
  if (St != IoStatus::Ok)
    return St;
  Out.Type = H.Type;
  Out.RequestId = H.RequestId;
  return readBody(Fd, H, MaxBodyBytes, Out.Body);
}
