//===- support/RecordFile.cpp - Checksummed, locked record files ----------===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/RecordFile.h"

#include "support/StrUtil.h"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

using namespace spl;
using namespace spl::support;

std::optional<std::string> support::readAll(int Fd) {
  // Straight into a result sized up front (only regular files have a
  // size), in large blocks: a stream copy through an ostringstream costs
  // ~1.5 ms per MiB, which a warm plan's tables artifact pays per probe.
  std::string Bytes;
  struct stat St;
  if (::fstat(Fd, &St) == 0 && S_ISREG(St.st_mode))
    Bytes.reserve(static_cast<std::size_t>(St.st_size));
  char Block[1 << 16];
  for (;;) {
    const ssize_t N = ::read(Fd, Block, sizeof Block);
    if (N == 0)
      return Bytes;
    if (N > 0)
      Bytes.append(Block, static_cast<std::size_t>(N));
    else if (errno != EINTR)
      return std::nullopt;
  }
}

std::optional<std::string> support::readFile(const std::string &Path) {
  UniqueFd Fd(::open(Path.c_str(), O_RDONLY | O_CLOEXEC));
  if (Fd.get() < 0)
    return std::nullopt;
  return readAll(Fd.get());
}

bool support::replaceFile(const std::string &Path, const std::string &Bytes) {
  std::string Tmp = Path + ".tmp";
  std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
  Out << Bytes;
  Out.close(); // Flushes; a failed open, write or flush leaves Out false.
  if (Out && std::rename(Tmp.c_str(), Path.c_str()) == 0)
    return true;
  std::remove(Tmp.c_str());
  return false;
}

RecordFile::Contents RecordFile::read(const std::string &Header,
                                      const std::string &Tag) const {
  Contents C;
  std::optional<std::string> Bytes = readFile(Path);
  if (!Bytes)
    return C;
  std::istringstream In(*Bytes);
  std::string Line;
  if (!std::getline(In, Line) || Line != Header) {
    C.HeaderOk = false;
    return C;
  }
  unsigned LineNo = 1;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    // Everything after "<tag> <checksum> " is the checksummed payload.
    std::istringstream SS(Line);
    std::string LineTag, Checksum, Payload;
    SS >> LineTag >> Checksum;
    std::getline(SS, Payload);
    if (!Payload.empty() && Payload.front() == ' ')
      Payload.erase(0, 1);
    if (LineTag != Tag || fnv1aHex(Payload) != Checksum)
      C.Rejected.push_back(LineNo);
    else
      C.Records.push_back({LineNo, std::move(Payload)});
  }
  return C;
}

bool RecordFile::write(const std::string &Header, const std::string &Tag,
                       const std::vector<std::string> &Payloads) const {
  std::string Bytes = Header + '\n';
  for (const std::string &P : Payloads)
    Bytes += Tag + ' ' + fnv1aHex(P) + ' ' + P + '\n';
  return replaceFile(Path, Bytes);
}
