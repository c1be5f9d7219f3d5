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
/// dying process releases its locks automatically.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_FILELOCK_H
#define SPL_SUPPORT_FILELOCK_H

#include <string>

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

namespace spl {

/// Holds an advisory flock on \p LockPath for the object's lifetime.
/// \p Operation is LOCK_SH or LOCK_EX (blocking). held() reports whether
/// the lock was actually acquired.
class FileLock {
public:
  FileLock(const std::string &LockPath, int Operation) {
    Fd = ::open(LockPath.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (Fd >= 0 && ::flock(Fd, Operation) != 0) {
      ::close(Fd);
      Fd = -1;
    }
  }

  ~FileLock() {
    if (Fd >= 0) {
      ::flock(Fd, LOCK_UN);
      ::close(Fd);
    }
  }

  FileLock(const FileLock &) = delete;
  FileLock &operator=(const FileLock &) = delete;

  bool held() const { return Fd >= 0; }

private:
  int Fd = -1;
};

} // namespace spl

#endif // SPL_SUPPORT_FILELOCK_H
