//===- support/RecordFile.h - Checksummed, locked record files --*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one on-disk format behind wisdom (search/PlanCache) and the kernel
/// cache index (perf/KernelCache): a version header line, then one
/// `<tag> <fnv1a-of-payload> <payload>` line per record. A RecordFile holds
/// an advisory flock on `<path>.lock` for its lifetime (LOCK_SH to read,
/// LOCK_EX across a read-merge-write), reads the records that pass their
/// checksum, and rewrites the file through replaceFile. The callers keep
/// only their payload grammar and merge policy. Format and lock protocol:
/// docs/ARCHITECTURE.md § Record files.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_RECORDFILE_H
#define SPL_SUPPORT_RECORDFILE_H

#include "support/FileLock.h"

#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace spl {
namespace support {

/// The rest of the open file \p Fd (binary); nullopt on a read error.
std::optional<std::string> readAll(int Fd);

/// The whole of \p Path (binary); nullopt when it cannot be read.
std::optional<std::string> readFile(const std::string &Path);

/// Replaces \p Path with \p Bytes: writes `<path>.tmp`, then renames it
/// over \p Path, so readers see the old file or the new one, never a torn
/// one. False (and no temp file left behind) on failure.
bool replaceFile(const std::string &Path, const std::string &Bytes);

/// A record file, locked for the object's lifetime.
class RecordFile {
public:
  /// Takes \p LockOp (LOCK_SH or LOCK_EX) on `<Path>.lock`; best-effort,
  /// like FileLock.
  RecordFile(std::string Path, int LockOp)
      : Path(std::move(Path)), Lock(this->Path + ".lock", LockOp) {}

  struct Record {
    unsigned Line = 0;   ///< 1-based line number (the header is line 1).
    std::string Payload; ///< The checksummed text after the checksum.
  };

  struct Contents {
    /// False when the file exists but its first line is not the header;
    /// the file then contributes no records.
    bool HeaderOk = true;
    std::vector<Record> Records;   ///< Lines that passed tag and checksum.
    std::vector<unsigned> Rejected; ///< Lines with a wrong tag or checksum.
  };

  /// Reads the file. A missing file reads as empty; blank lines and lines
  /// starting with '#' are neither records nor rejected.
  Contents read(const std::string &Header, const std::string &Tag) const;

  /// Rewrites the file as \p Header plus one checksummed \p Tag line per
  /// payload, through replaceFile.
  bool write(const std::string &Header, const std::string &Tag,
             const std::vector<std::string> &Payloads) const;

private:
  std::string Path;
  FileLock Lock;
};

} // namespace support
} // namespace spl

#endif // SPL_SUPPORT_RECORDFILE_H
