//===- perf/KernelCache.cpp - Persistent compiled-kernel cache ----------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "perf/KernelCache.h"

#include "perf/NativeCompile.h"
#include "support/HostInfo.h"
#include "support/RecordFile.h"
#include "support/StrUtil.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <mutex>
#include <sstream>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>

using namespace spl;
using namespace spl::perf;

namespace fs = std::filesystem;

namespace {

// v1: "kernel <line-checksum> <key> <so-checksum> <so-bytes>" records. An
// unknown version header invalidates the whole index; the artifacts it
// described become orphans and are reclaimed by the next insert's sweep.
// The cache only ever degrades to recompilation, so dropping it is cheap.
constexpr const char *IndexVersionHeader = "spl-kernelcache v1";

std::mutex ConfigM;
KernelCache::Config GConfig;
bool GResolved = false;

/// Parses SPL_KERNEL_CACHE / SPL_KERNEL_CACHE_MB once (call under ConfigM).
void resolveEnvLocked() {
  if (GResolved)
    return;
  GResolved = true;
  if (const char *Env = std::getenv("SPL_KERNEL_CACHE")) {
    std::string V = toLower(Env);
    if (!V.empty() && V != "0" && V != "off" && V != "none") {
      GConfig.Enabled = true;
      GConfig.Dir = Env;
    }
  }
  if (const char *MB = std::getenv("SPL_KERNEL_CACHE_MB")) {
    long long N = std::atoll(MB);
    if (N > 0)
      GConfig.MaxBytes = static_cast<std::uint64_t>(N) << 20;
  }
}

/// One index record: what the artifact must hash to, and its size.
struct IndexEntry {
  std::string SoCksum;
  std::uint64_t SoBytes = 0;
};

std::string indexPath(const std::string &Dir) { return Dir + "/index"; }
std::string soPath(const std::string &Dir, const std::string &Key) {
  return Dir + "/" + Key + ".so";
}

/// Parses the index into \p Into and returns the number of corrupt or
/// checksum-failing lines skipped. A missing index is an empty cache; a
/// wrong version header invalidates everything.
std::size_t loadIndex(const support::RecordFile &File,
                      std::map<std::string, IndexEntry> &Into) {
  support::RecordFile::Contents C = File.read(IndexVersionHeader, "kernel");
  std::size_t Corrupt = C.Rejected.size();
  for (const support::RecordFile::Record &R : C.Records) {
    std::istringstream PS(R.Payload);
    std::string Key, SoCksum;
    long long Bytes = 0;
    if (!(PS >> Key >> SoCksum >> Bytes) || Key.empty() ||
        SoCksum.size() != 16 || Bytes <= 0) {
      ++Corrupt;
      continue;
    }
    Into[Key] = IndexEntry{SoCksum, static_cast<std::uint64_t>(Bytes)};
  }
  return Corrupt;
}

/// Rewrites the index. False on write failure.
bool writeIndex(const support::RecordFile &File,
                const std::map<std::string, IndexEntry> &Index) {
  std::vector<std::string> Payloads;
  for (const auto &[Key, E] : Index)
    Payloads.push_back(Key + ' ' + E.SoCksum + ' ' +
                       std::to_string(E.SoBytes));
  return File.write(IndexVersionHeader, "kernel", Payloads);
}

/// Refreshes the artifact's mtime so LRU eviction sees the hit (best
/// effort; a failed touch only ages the entry).
void touchArtifact(const std::string &Path) {
  ::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0);
}

} // namespace

KernelCache::Config KernelCache::config() {
  std::lock_guard<std::mutex> Lock(ConfigM);
  resolveEnvLocked();
  Config C = GConfig;
  if (C.Enabled && C.Dir.empty())
    C.Dir = defaultDir();
  return C;
}

void KernelCache::configure(const Config &C) {
  std::lock_guard<std::mutex> Lock(ConfigM);
  GResolved = true;
  GConfig = C;
}

void KernelCache::setDirectory(const std::string &Dir) {
  std::lock_guard<std::mutex> Lock(ConfigM);
  resolveEnvLocked();
  GConfig.Enabled = true;
  GConfig.Dir = Dir;
}

void KernelCache::setEnabled(bool On) {
  std::lock_guard<std::mutex> Lock(ConfigM);
  resolveEnvLocked();
  GConfig.Enabled = On;
}

std::string KernelCache::defaultDir() {
  if (const char *Home = std::getenv("HOME"))
    if (*Home)
      return std::string(Home) + "/.spl_kernel_cache";
  return ".spl_kernel_cache";
}

std::string KernelCache::key(const std::string &CSource,
                             const std::string &FnName,
                             const std::string &ExtraFlags) {
  // Everything that can change the produced machine code, one line each.
  // The source text is folded to its own hash first so the payload stays
  // small; the outer hash is the cache key (docs/KERNEL_CACHE.md). v3
  // dropped v2's codegen-variant line: the source now spells its ISA (the
  // vector typedef's width), so the source hash already separates them.
  std::string Payload;
  Payload += "spl-kernelcache-key v3\n";
  Payload += "host " + HostInfo::fingerprint() + "\n";
  Payload += "cc " + NativeModule::compilerIdentity() + "\n";
  Payload += "flags " + ExtraFlags + "\n";
  Payload += "fn " + FnName + "\n";
  Payload += "src " + fnv1aHex(CSource) + "\n";
  return fnv1aHex(Payload);
}

std::optional<std::string> KernelCache::probe(const std::string &Key) {
  Config C = config();
  if (!C.Enabled)
    return std::nullopt;
  telemetry::StageTimer T(telemetry::KernelcacheProbeNs);

  std::string Artifact = soPath(C.Dir, Key);
  bool CorruptArtifact = false;
  {
    // Shared lock: never read the index or an artifact mid-replacement.
    support::RecordFile File(indexPath(C.Dir), LOCK_SH);
    std::map<std::string, IndexEntry> Index;
    loadIndex(File, Index);
    auto It = Index.find(Key);
    if (It == Index.end()) {
      telemetry::KernelcacheMisses.add();
      return std::nullopt;
    }
    std::optional<std::string> Bytes = support::readFile(Artifact);
    if (!Bytes || Bytes->size() != It->second.SoBytes ||
        fnv1aHex(*Bytes) != It->second.SoCksum)
      CorruptArtifact = true;
  }
  if (CorruptArtifact) {
    // A flipped or truncated artifact degrades to a recompile: drop the
    // entry so the caller's (lock-serialized) rebuild repopulates it.
    telemetry::KernelcacheCorruptEntries.add();
    telemetry::KernelcacheMisses.add();
    remove(Key);
    return std::nullopt;
  }
  telemetry::KernelcacheHits.add();
  touchArtifact(Artifact);
  return Artifact;
}

std::optional<std::string> KernelCache::insert(const std::string &Key,
                                               const std::string &SoPath) {
  Config C = config();
  if (!C.Enabled)
    return std::nullopt;

  std::error_code EC;
  fs::create_directories(C.Dir, EC);
  std::optional<std::string> Bytes = support::readFile(SoPath);
  if (!Bytes || Bytes->empty())
    return std::nullopt;

  // Exclusive lock across read-rewrite-rename: inserts, evictions, and the
  // orphan sweep all serialize here.
  support::RecordFile File(indexPath(C.Dir), LOCK_EX);

  std::map<std::string, IndexEntry> Index;
  if (std::size_t CorruptLines = loadIndex(File, Index))
    telemetry::KernelcacheCorruptEntries.add(CorruptLines);

  // Artifact first, then the index that vouches for it: a crash between
  // the two leaves an orphan, never an index entry pointing at garbage.
  std::string Dest = soPath(C.Dir, Key);
  if (!support::replaceFile(Dest, *Bytes))
    return std::nullopt;
  Index[Key] = IndexEntry{fnv1aHex(*Bytes), Bytes->size()};

  // Drop entries whose artifact has vanished underneath the index.
  for (auto It = Index.begin(); It != Index.end();) {
    if (It->first != Key && !fs::exists(soPath(C.Dir, It->first), EC))
      It = Index.erase(It);
    else
      ++It;
  }

  // LRU eviction past the byte budget: oldest artifact mtime goes first
  // (probes refresh mtime on every hit). The just-inserted key always
  // survives, so one oversized kernel degrades the bound rather than
  // thrashing forever.
  std::uint64_t Total = 0;
  for (const auto &[K, E] : Index)
    Total += E.SoBytes;
  if (Total > C.MaxBytes) {
    struct Victim {
      fs::file_time_type MTime;
      std::string Key;
      std::uint64_t Bytes;
    };
    std::vector<Victim> Victims;
    for (const auto &[K, E] : Index) {
      if (K == Key)
        continue;
      fs::file_time_type M = fs::last_write_time(soPath(C.Dir, K), EC);
      Victims.push_back({EC ? fs::file_time_type::min() : M, K, E.SoBytes});
    }
    std::sort(Victims.begin(), Victims.end(),
              [](const Victim &A, const Victim &B) {
                return A.MTime != B.MTime ? A.MTime < B.MTime
                                          : A.Key < B.Key;
              });
    for (const Victim &V : Victims) {
      if (Total <= C.MaxBytes)
        break;
      std::remove(soPath(C.Dir, V.Key).c_str());
      std::remove((C.Dir + "/" + V.Key + ".lock").c_str());
      Index.erase(V.Key);
      Total -= V.Bytes;
      telemetry::KernelcacheEvictions.add();
    }
  }

  // Orphan sweep: artifacts the index no longer vouches for (crash
  // leftovers, alien files, artifacts described by a discarded corrupt
  // index) and stale temp files are reclaimed. All writers hold the
  // exclusive lock, so anything unreferenced here is garbage.
  for (const auto &Entry : fs::directory_iterator(C.Dir, EC)) {
    std::string Name = Entry.path().filename().string();
    if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, ".so") == 0) {
      std::string K = Name.substr(0, Name.size() - 3);
      if (!Index.count(K))
        std::remove(Entry.path().c_str());
    } else if (Name.find(".so.tmp") != std::string::npos) {
      std::remove(Entry.path().c_str());
    }
  }

  if (!writeIndex(File, Index))
    return std::nullopt;
  telemetry::KernelcacheInserts.add();
  return Dest;
}

void KernelCache::remove(const std::string &Key) {
  Config C = config();
  if (!C.Enabled)
    return;
  support::RecordFile File(indexPath(C.Dir), LOCK_EX);
  std::map<std::string, IndexEntry> Index;
  loadIndex(File, Index);
  if (Index.erase(Key))
    writeIndex(File, Index);
  std::remove(soPath(C.Dir, Key).c_str());
}

std::string KernelCache::populationLockPath(const std::string &Key) {
  Config C = config();
  if (!C.Enabled)
    return "";
  std::error_code EC;
  fs::create_directories(C.Dir, EC);
  return C.Dir + "/" + Key + ".lock";
}
