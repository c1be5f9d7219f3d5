//===- support/FileLock.h - Advisory inter-process file lock ----*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// RAII advisory flock() on a dedicated lock file. support::RecordFile
/// (wisdom, the kernel-cache index) holds one on `<path>.lock` per file,
/// and the kernel cache one per key while it populates; the protocol is
/// docs/ARCHITECTURE.md § Record files. Best-effort by design: when the
/// lock file cannot be created the caller proceeds unlocked. flock locks
/// attach to the open file description, so two threads of one process
/// contending on the same path serialize just like two processes, and a
/// dying process releases its locks automatically. UniqueFd, the owned
/// descriptor a FileLock holds, also carries a kernel's tables to its trial.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_FILELOCK_H
#define SPL_SUPPORT_FILELOCK_H

#include <string>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace spl {

/// An owned file descriptor, closed with its owner; -1 owns nothing.
class UniqueFd {
public:
  explicit UniqueFd(int Fd = -1) : Fd(Fd) {}
  UniqueFd(UniqueFd &&O) noexcept : Fd(std::exchange(O.Fd, -1)) {}
  UniqueFd &operator=(UniqueFd &&O) noexcept {
    reset(std::exchange(O.Fd, -1));
    return *this;
  }
  ~UniqueFd() { reset(); }

  int get() const { return Fd; }
  void reset(int NewFd = -1) {
    if (Fd >= 0)
      ::close(Fd);
    Fd = NewFd;
  }

private:
  int Fd;
};

/// Holds an advisory flock on \p LockPath for the object's lifetime.
/// \p Operation is LOCK_SH or LOCK_EX (blocking). held() reports whether
/// the lock was actually acquired.
class FileLock {
public:
  FileLock(const std::string &LockPath, int Operation)
      : Fd(::open(LockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644)) {
    if (Fd.get() >= 0 && ::flock(Fd.get(), Operation) != 0)
      Fd.reset();
  }

  /// Unlocks explicitly: a child mid-spawn may still share the descriptor.
  ~FileLock() {
    if (held())
      ::flock(Fd.get(), LOCK_UN);
  }

  FileLock(const FileLock &) = delete;
  FileLock &operator=(const FileLock &) = delete;

  bool held() const { return Fd.get() >= 0; }

private:
  UniqueFd Fd;
};

} // namespace spl

#endif // SPL_SUPPORT_FILELOCK_H
