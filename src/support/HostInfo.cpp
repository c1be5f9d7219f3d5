//===- support/HostInfo.cpp - Host platform probing -----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/HostInfo.h"

#include "support/RecordFile.h"
#include "support/StrUtil.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__linux__)
#include <sys/utsname.h>
#include <unistd.h>
#endif

using namespace spl;

namespace {

/// Reads a whole small file; returns "" when unreadable.
std::string slurp(const std::string &Path) {
  return support::readFile(Path).value_or("");
}

/// Parses cache-size strings like "32K" / "512K" / "8192K" / "1M".
std::uint64_t parseSizeSuffixed(const std::string &S) {
  if (S.empty())
    return 0;
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (End == S.c_str())
    return 0;
  while (*End == ' ')
    ++End;
  switch (*End) {
  case 'K':
  case 'k':
    return static_cast<std::uint64_t>(V * 1024);
  case 'M':
  case 'm':
    return static_cast<std::uint64_t>(V * 1024 * 1024);
  case 'G':
  case 'g':
    return static_cast<std::uint64_t>(V * 1024 * 1024 * 1024);
  default:
    return static_cast<std::uint64_t>(V);
  }
}

/// Reads one sysfs cache index; fills the matching HostInfo field.
void probeCacheIndex(HostInfo &Info, int Index) {
  std::string Base =
      "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(Index);
  std::string Level = slurp(Base + "/level");
  std::string Type = slurp(Base + "/type");
  std::uint64_t Size = parseSizeSuffixed(slurp(Base + "/size"));
  if (Level.empty() || Size == 0)
    return;
  int L = std::atoi(Level.c_str());
  bool IsInst = startsWith(Type, "Instruction");
  if (L == 1 && IsInst)
    Info.L1InstBytes = Size;
  else if (L == 1)
    Info.L1DataBytes = Size;
  else if (L == 2)
    Info.L2Bytes = Size;
  else if (L == 3)
    Info.L3Bytes = Size;
}

} // namespace

const std::string &HostInfo::fingerprint() {
  static const std::string FP = [] {
    HostInfo Info = detect();
    return fnv1aHex(Info.CpuModel + "|" + Info.OSName + "|" + Info.Compiler);
  }();
  return FP;
}

HostInfo HostInfo::detect() {
  HostInfo Info;

#if defined(__linux__)
  // CPU model and clock from /proc/cpuinfo.
  std::ifstream CpuInfo("/proc/cpuinfo");
  std::string Line;
  while (std::getline(CpuInfo, Line)) {
    auto Colon = Line.find(':');
    if (Colon == std::string::npos)
      continue;
    std::string Key = Line.substr(0, Colon);
    // Trim trailing whitespace from the key.
    while (!Key.empty() && (Key.back() == ' ' || Key.back() == '\t'))
      Key.pop_back();
    std::string Value = Line.substr(Colon + 1);
    if (!Value.empty() && Value.front() == ' ')
      Value.erase(0, 1);
    if (Key == "model name" && Info.CpuModel.empty())
      Info.CpuModel = Value;
    else if (Key == "cpu MHz" && Info.CpuMHz == 0)
      Info.CpuMHz = std::atof(Value.c_str());
  }

  for (int I = 0; I < 8; ++I)
    probeCacheIndex(Info, I);

  long Pages = sysconf(_SC_PHYS_PAGES);
  long PageSize = sysconf(_SC_PAGE_SIZE);
  if (Pages > 0 && PageSize > 0)
    Info.MemoryBytes =
        static_cast<std::uint64_t>(Pages) * static_cast<std::uint64_t>(PageSize);

  struct utsname Uts;
  if (uname(&Uts) == 0) {
    Info.OSName = std::string(Uts.sysname) + " " + Uts.release;
  }
#endif

#if defined(__clang__)
  Info.Compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  Info.Compiler = "gcc " + std::to_string(__GNUC__) + "." +
                  std::to_string(__GNUC_MINOR__) + "." +
                  std::to_string(__GNUC_PATCHLEVEL__);
#endif

  return Info;
}

std::string spl::formatBytes(std::uint64_t Bytes) {
  if (Bytes == 0)
    return "unknown";
  char Buf[32];
  if (Bytes >= (1ull << 30) && Bytes % (1ull << 30) == 0) {
    std::snprintf(Buf, sizeof(Buf), "%lluGB",
                  static_cast<unsigned long long>(Bytes >> 30));
  } else if (Bytes >= (1ull << 20)) {
    std::snprintf(Buf, sizeof(Buf), "%lluMB",
                  static_cast<unsigned long long>(Bytes >> 20));
  } else if (Bytes >= (1ull << 10)) {
    std::snprintf(Buf, sizeof(Buf), "%lluKB",
                  static_cast<unsigned long long>(Bytes >> 10));
  } else {
    std::snprintf(Buf, sizeof(Buf), "%lluB",
                  static_cast<unsigned long long>(Bytes));
  }
  return Buf;
}

std::string HostInfo::table() const {
  std::ostringstream SS;
  auto Row = [&SS](const std::string &Key, const std::string &Value) {
    SS << "  " << Key;
    for (size_t I = Key.size(); I < 12; ++I)
      SS << ' ';
    SS << (Value.empty() ? "unknown" : Value) << '\n';
  };
  Row("CPU", CpuModel);
  Row("Clock", CpuMHz > 0 ? formatDouble(CpuMHz) + "MHz" : "");
  std::string L1;
  if (L1InstBytes || L1DataBytes)
    L1 = formatBytes(L1InstBytes) + "/" + formatBytes(L1DataBytes);
  Row("L1 cache", L1);
  Row("L2 cache", L2Bytes ? formatBytes(L2Bytes) : "");
  if (L3Bytes)
    Row("L3 cache", formatBytes(L3Bytes));
  Row("Memory", MemoryBytes ? formatBytes(MemoryBytes) : "");
  Row("OS", OSName);
  Row("Compiler", Compiler);
  return SS.str();
}
