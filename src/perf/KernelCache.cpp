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

#include <cstring>

#include <fcntl.h>
#include <link.h>
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

// v1: "plan <line-checksum> <plan-key> <so-key> <tables-checksum>
// <tables-bytes> <cost|->" records, one per plan key (docs/KERNEL_CACHE.md
// § Plan records). An unknown header drops every record; the next plan of
// each spec takes the full path and writes its record again.
constexpr const char *PlansVersionHeader = "spl-kernelcache-plans v1";

/// The tables artifact's magic (KernelCache::writeTables; the host
/// fingerprint is part of the plan key, so host byte order is safe).
constexpr char TablesMagic[8] = {'s', 'p', 'l', 't', 'a', 'b', '0', '1'};

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

/// One plan record: the artifact it runs, its tables, and a rule cost.
struct PlanEntry {
  std::string SoKey;
  std::string TablesCksum;
  std::uint64_t TablesBytes = 0;
  std::optional<double> Cost;
};

std::string indexPath(const std::string &Dir) { return Dir + "/index"; }
std::string plansPath(const std::string &Dir) { return Dir + "/plans"; }
std::string soPath(const std::string &Dir, const std::string &Key) {
  return Dir + "/" + Key + ".so";
}
std::string tablesPath(const std::string &Dir, const std::string &PlanKey) {
  return Dir + "/" + PlanKey + ".tables";
}

bool endsWith(const std::string &S, const char *Suffix) {
  const std::size_t N = std::strlen(Suffix);
  return S.size() >= N && S.compare(S.size() - N, N, Suffix) == 0;
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

/// Parses the plan records into \p Into; returns the number of lines
/// skipped as corrupt.
std::size_t loadPlans(const support::RecordFile &File,
                      std::map<std::string, PlanEntry> &Into) {
  support::RecordFile::Contents C = File.read(PlansVersionHeader, "plan");
  std::size_t Corrupt = C.Rejected.size();
  for (const support::RecordFile::Record &R : C.Records) {
    std::istringstream PS(R.Payload);
    std::string Key, SoKey, Cksum, Cost;
    long long Bytes = 0;
    if (!(PS >> Key >> SoKey >> Cksum >> Bytes >> Cost) || Key.empty() ||
        SoKey.empty() || Cksum.size() != 16 || Bytes <= 0) {
      ++Corrupt;
      continue;
    }
    PlanEntry E{SoKey, Cksum, static_cast<std::uint64_t>(Bytes), {}};
    if (Cost != "-") {
      char *End = nullptr;
      E.Cost = std::strtod(Cost.c_str(), &End);
      if (End == Cost.c_str() || *End != '\0') {
        ++Corrupt;
        continue;
      }
    }
    Into[Key] = std::move(E);
  }
  return Corrupt;
}

bool writePlans(const support::RecordFile &File,
                const std::map<std::string, PlanEntry> &Plans) {
  std::vector<std::string> Payloads;
  for (const auto &[Key, E] : Plans) {
    std::string Cost = "-";
    if (E.Cost) {
      // Hex floats round-trip exactly through strtod.
      char Buf[64];
      std::snprintf(Buf, sizeof Buf, "%a", *E.Cost);
      Cost = Buf;
    }
    Payloads.push_back(Key + ' ' + E.SoKey + ' ' + E.TablesCksum + ' ' +
                       std::to_string(E.TablesBytes) + ' ' + Cost);
  }
  return File.write(PlansVersionHeader, "plan", Payloads);
}

/// The tables artifact's checksum: FNV-1a over 64-bit words, then the tail
/// bytes, as 16 hex digits. Byte-wise FNV-1a (fnv1aHex) spends ~1.6 ms per
/// MiB, as much as the rest of a warm fft 2^16 probe; one multiply per word
/// keeps the property that matters here: changing any one word always
/// changes the sum (each step is a bijection of the running state).
std::string tablesChecksum(const std::string &Bytes) {
  std::uint64_t H = 1469598103934665603ULL;
  const std::size_t Words = Bytes.size() / 8;
  for (std::size_t I = 0; I != Words; ++I) {
    std::uint64_t W;
    std::memcpy(&W, Bytes.data() + 8 * I, 8);
    H = (H ^ W) * 1099511628211ULL;
  }
  for (std::size_t I = 8 * Words; I != Bytes.size(); ++I)
    H = (H ^ static_cast<unsigned char>(Bytes[I])) * 1099511628211ULL;
  char Hex[17];
  std::snprintf(Hex, sizeof Hex, "%016llx", static_cast<unsigned long long>(H));
  return Hex;
}

/// Inverse of writeTables; nullopt when the bytes do not parse exactly.
std::optional<std::vector<std::vector<double>>>
decodeTables(const std::string &Bytes) {
  std::size_t Pos = 0;
  auto Get = [&](void *P, std::size_t N) {
    if (N > Bytes.size() - Pos)
      return false;
    std::memcpy(P, Bytes.data() + Pos, N);
    Pos += N;
    return true;
  };
  char Magic[sizeof TablesMagic];
  std::uint64_t Count = 0;
  if (!Get(Magic, sizeof Magic) ||
      std::memcmp(Magic, TablesMagic, sizeof Magic) != 0 ||
      !Get(&Count, sizeof Count) || Count > Bytes.size())
    return std::nullopt;
  std::vector<std::vector<double>> Tables(Count);
  for (std::vector<double> &T : Tables) {
    std::uint64_t Len = 0;
    if (!Get(&Len, sizeof Len) || Len > (Bytes.size() - Pos) / sizeof(double))
      return std::nullopt;
    T.resize(Len);
    Get(T.data(), Len * sizeof(double));
  }
  if (Pos != Bytes.size())
    return std::nullopt;
  return Tables;
}

enum class ArtifactState { Unindexed, Corrupt, Ok };

/// Checks \p Key's artifact against its index entry: size and checksum of
/// the full .so bytes.
ArtifactState verifyArtifact(const std::string &Dir,
                             const std::map<std::string, IndexEntry> &Index,
                             const std::string &Key) {
  auto It = Index.find(Key);
  if (It == Index.end())
    return ArtifactState::Unindexed;
  std::optional<std::string> Bytes = support::readFile(soPath(Dir, Key));
  if (!Bytes || Bytes->size() != It->second.SoBytes ||
      fnv1aHex(*Bytes) != It->second.SoCksum)
    return ArtifactState::Corrupt;
  return ArtifactState::Ok;
}

/// Refreshes the artifact's mtime so LRU eviction sees the hit (best
/// effort; a failed touch only ages the entry).
void touchArtifact(const std::string &Path) {
  ::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0);
}

/// Brings the directory to what the index and the plan records vouch for
/// (call holding both files' exclusive locks): drops index entries whose
/// artifact vanished and plan records whose artifact left the index,
/// evicts least-recently-used artifacts and tables past \p MaxBytes, and
/// removes every unreferenced artifact, tables file and temp file. \p
/// KeepSo and \p KeepPlan, just inserted, always survive.
void settle(const std::string &Dir, std::uint64_t MaxBytes,
            std::map<std::string, IndexEntry> &Index,
            std::map<std::string, PlanEntry> &Plans,
            const std::string &KeepSo, const std::string &KeepPlan) {
  std::error_code EC;
  for (auto It = Index.begin(); It != Index.end();) {
    if (It->first != KeepSo && !fs::exists(soPath(Dir, It->first), EC))
      It = Index.erase(It);
    else
      ++It;
  }
  // Drops the plan records whose artifact left the index; their bytes.
  auto DropUnbacked = [&] {
    std::uint64_t Bytes = 0;
    for (auto It = Plans.begin(); It != Plans.end();) {
      if (Index.count(It->second.SoKey)) {
        ++It;
        continue;
      }
      Bytes += It->second.TablesBytes;
      It = Plans.erase(It);
    }
    return Bytes;
  };
  DropUnbacked();

  // LRU eviction past the byte budget: oldest mtime goes first (probes
  // refresh mtimes on every hit). Evicting an artifact takes its plan
  // records with it. The just-inserted entries always survive, so one
  // oversized kernel degrades the bound rather than thrashing forever.
  std::uint64_t Total = 0;
  for (const auto &[K, E] : Index)
    Total += E.SoBytes;
  for (const auto &[K, E] : Plans)
    Total += E.TablesBytes;
  if (Total > MaxBytes) {
    struct Victim {
      fs::file_time_type MTime;
      std::string Key;
      bool IsPlan;
    };
    std::vector<Victim> Victims;
    auto AddVictim = [&](const std::string &Path, const std::string &K,
                         bool IsPlan) {
      fs::file_time_type M = fs::last_write_time(Path, EC);
      Victims.push_back({EC ? fs::file_time_type::min() : M, K, IsPlan});
    };
    const std::string KeepPlanSo =
        Plans.count(KeepPlan) ? Plans[KeepPlan].SoKey : std::string();
    for (const auto &[K, E] : Index)
      if (K != KeepSo && K != KeepPlanSo)
        AddVictim(soPath(Dir, K), K, false);
    for (const auto &[K, E] : Plans)
      if (K != KeepPlan)
        AddVictim(tablesPath(Dir, K), K, true);
    std::sort(Victims.begin(), Victims.end(),
              [](const Victim &A, const Victim &B) {
                return A.MTime != B.MTime ? A.MTime < B.MTime
                                          : A.Key < B.Key;
              });
    for (const Victim &V : Victims) {
      if (Total <= MaxBytes)
        break;
      if (V.IsPlan) {
        auto It = Plans.find(V.Key);
        if (It == Plans.end())
          continue; // Went with its artifact.
        Total -= It->second.TablesBytes;
        Plans.erase(It);
      } else {
        Total -= Index[V.Key].SoBytes;
        Index.erase(V.Key);
        std::remove((Dir + "/" + V.Key + ".lock").c_str());
        Total -= DropUnbacked();
      }
      telemetry::KernelcacheEvictions.add();
    }
  }

  // Orphan sweep: artifacts and tables nothing vouches for (evicted, crash
  // leftovers, alien files, entries of a discarded corrupt index) and
  // stale temp files are reclaimed. All writers hold the exclusive locks,
  // so anything unreferenced here is garbage.
  for (const auto &Entry : fs::directory_iterator(Dir, EC)) {
    std::string Name = Entry.path().filename().string();
    bool Garbage = Name.find(".so.tmp") != std::string::npos ||
                   Name.find(".tables.tmp") != std::string::npos;
    if (endsWith(Name, ".so"))
      Garbage = !Index.count(Name.substr(0, Name.size() - 3));
    else if (endsWith(Name, ".tables"))
      Garbage = !Plans.count(Name.substr(0, Name.size() - 7));
    if (Garbage)
      std::remove(Entry.path().c_str());
  }
}

/// Drops \p PlanKey's record and tables artifact (takes the plans lock).
void removePlan(const std::string &Dir, const std::string &PlanKey) {
  support::RecordFile PlansFile(plansPath(Dir), LOCK_EX);
  std::map<std::string, PlanEntry> Plans;
  loadPlans(PlansFile, Plans);
  if (Plans.erase(PlanKey))
    writePlans(PlansFile, Plans);
  std::remove(tablesPath(Dir, PlanKey).c_str());
}

/// Finds the GNU build-id note of the loaded object holding Addr.
struct BuildIdSearch {
  std::uintptr_t Addr = 0;
  std::string Hex;
};

int findBuildId(dl_phdr_info *Info, std::size_t, void *Data) {
  BuildIdSearch &S = *static_cast<BuildIdSearch *>(Data);
  bool Holds = false;
  for (int I = 0; I != Info->dlpi_phnum && !Holds; ++I) {
    const ElfW(Phdr) &Ph = Info->dlpi_phdr[I];
    const std::uintptr_t Lo = Info->dlpi_addr + Ph.p_vaddr;
    Holds = Ph.p_type == PT_LOAD && S.Addr >= Lo && S.Addr - Lo < Ph.p_memsz;
  }
  if (!Holds)
    return 0;
  for (int I = 0; I != Info->dlpi_phnum; ++I) {
    const ElfW(Phdr) &Ph = Info->dlpi_phdr[I];
    if (Ph.p_type != PT_NOTE)
      continue;
    // Name and descriptor are padded to the segment's alignment (4, or 8
    // for segments holding 8-aligned notes such as .note.gnu.property).
    const std::size_t Align = Ph.p_align == 8 ? 8 : 4;
    auto Pad = [Align](std::size_t N) { return (N + Align - 1) & ~(Align - 1); };
    const char *P = reinterpret_cast<const char *>(Info->dlpi_addr + Ph.p_vaddr);
    std::size_t Left = Ph.p_memsz;
    while (Left >= sizeof(ElfW(Nhdr))) {
      ElfW(Nhdr) N;
      std::memcpy(&N, P, sizeof N);
      const std::size_t Name = Pad(N.n_namesz), Desc = Pad(N.n_descsz);
      if (Name > Left || Desc > Left - Name ||
          sizeof N > Left - Name - Desc)
        break;
      const char *NameP = P + sizeof N;
      if (N.n_type == NT_GNU_BUILD_ID && N.n_namesz == 4 &&
          std::memcmp(NameP, "GNU", 4) == 0) {
        const auto *D = reinterpret_cast<const unsigned char *>(NameP + Name);
        static const char Digits[] = "0123456789abcdef";
        for (std::size_t J = 0; J != N.n_descsz; ++J) {
          S.Hex += Digits[D[J] >> 4];
          S.Hex += Digits[D[J] & 15];
        }
        return 1;
      }
      P += sizeof N + Name + Desc;
      Left -= sizeof N + Name + Desc;
    }
  }
  return 1; // The holding object has no build-id.
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

  ArtifactState State;
  {
    // Shared lock: never read the index or an artifact mid-replacement.
    support::RecordFile File(indexPath(C.Dir), LOCK_SH);
    std::map<std::string, IndexEntry> Index;
    loadIndex(File, Index);
    State = verifyArtifact(C.Dir, Index, Key);
  }
  if (State != ArtifactState::Ok) {
    telemetry::KernelcacheMisses.add();
    if (State == ArtifactState::Corrupt) {
      // A flipped or truncated artifact degrades to a recompile: drop the
      // entry so the caller's (lock-serialized) rebuild repopulates it.
      telemetry::KernelcacheCorruptEntries.add();
      remove(Key);
    }
    return std::nullopt;
  }
  telemetry::KernelcacheHits.add();
  std::string Artifact = soPath(C.Dir, Key);
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

  // Exclusive locks, index first then plans (every path takes them in that
  // order), across read-rewrite-rename: inserts, evictions, and the orphan
  // sweep all serialize here.
  support::RecordFile File(indexPath(C.Dir), LOCK_EX);
  support::RecordFile PlansFile(plansPath(C.Dir), LOCK_EX);

  std::map<std::string, IndexEntry> Index;
  std::map<std::string, PlanEntry> Plans;
  if (std::size_t CorruptLines =
          loadIndex(File, Index) + loadPlans(PlansFile, Plans))
    telemetry::KernelcacheCorruptEntries.add(CorruptLines);

  // Artifact first, then the index that vouches for it: a crash between
  // the two leaves an orphan, never an index entry pointing at garbage.
  std::string Dest = soPath(C.Dir, Key);
  // Executable, like the compiler's own output: the trial runner is an
  // artifact too.
  if (!support::replaceFile(Dest, *Bytes) || ::chmod(Dest.c_str(), 0755) != 0)
    return std::nullopt;
  Index[Key] = IndexEntry{fnv1aHex(*Bytes), Bytes->size()};
  settle(C.Dir, C.MaxBytes, Index, Plans, Key, "");

  if (!writeIndex(File, Index) ||
      ((!Plans.empty() || fs::exists(plansPath(C.Dir), EC)) &&
       !writePlans(PlansFile, Plans)))
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

std::string KernelCache::planKey(const PlanKeyInputs &In) {
  if (In.BuildId.empty())
    return "";
  // One line per input, as key() does; the formula is folded to its own
  // hash first. The build-id stands for everything the running build
  // decides: the lowering recipe, the optimizer and the C emitter.
  std::string Payload;
  Payload += "spl-kernelcache-plankey v1\n";
  Payload += "build " + In.BuildId + "\n";
  Payload += "host " + In.Host + "\n";
  Payload += "cc " + In.Compiler + "\n";
  Payload += "flags " + In.Flags + "\n";
  Payload += "isa " + In.ISA + "\n";
  Payload += "variant " + In.Variant + "\n";
  Payload += "eval " + In.Evaluator + "\n";
  Payload += "unroll " + std::to_string(In.UnrollThreshold) + "\n";
  Payload += "datatype " + In.Datatype + "\n";
  Payload += "fn " + In.SubName + "\n";
  Payload += "formula " + fnv1aHex(In.FormulaText) + "\n";
  return fnv1aHex(Payload);
}

const std::string &KernelCache::buildId() {
  static const std::string Id = [] {
    BuildIdSearch S;
    S.Addr = reinterpret_cast<std::uintptr_t>(&findBuildId);
    dl_iterate_phdr(findBuildId, &S);
    return S.Hex;
  }();
  return Id;
}

std::optional<KernelCache::PlanRecord>
KernelCache::probePlan(const std::string &PlanKey) {
  Config C = config();
  if (!C.Enabled || PlanKey.empty())
    return std::nullopt;
  telemetry::StageTimer T(telemetry::KernelcacheProbeNs);

  PlanRecord Hit;
  ArtifactState State = ArtifactState::Unindexed;
  bool TablesOk = false;
  {
    // Shared locks in the writers' order: index, then plans.
    support::RecordFile File(indexPath(C.Dir), LOCK_SH);
    support::RecordFile PlansFile(plansPath(C.Dir), LOCK_SH);
    std::map<std::string, PlanEntry> Plans;
    loadPlans(PlansFile, Plans);
    auto It = Plans.find(PlanKey);
    if (It == Plans.end())
      return std::nullopt;
    std::map<std::string, IndexEntry> Index;
    loadIndex(File, Index);
    const PlanEntry &E = It->second;
    State = verifyArtifact(C.Dir, Index, E.SoKey);
    if (State == ArtifactState::Ok) {
      std::optional<std::string> Bytes =
          support::readFile(tablesPath(C.Dir, PlanKey));
      if (Bytes && Bytes->size() == E.TablesBytes &&
          tablesChecksum(*Bytes) == E.TablesCksum)
        if (auto Tables = decodeTables(*Bytes)) {
          Hit.Tables = std::move(*Tables);
          TablesOk = true;
        }
    }
    Hit.SoKey = E.SoKey;
    Hit.Cost = E.Cost;
  }
  if (State != ArtifactState::Ok || !TablesOk) {
    // A record whose artifact left the index is stale, not corrupt; a
    // damaged artifact or tables file is both counted and dropped. Either
    // way the caller's full path writes the record again.
    if (State != ArtifactState::Unindexed)
      telemetry::KernelcacheCorruptEntries.add();
    if (State == ArtifactState::Corrupt)
      remove(Hit.SoKey);
    removePlan(C.Dir, PlanKey);
    return std::nullopt;
  }
  telemetry::KernelcacheHits.add();
  Hit.SoPath = soPath(C.Dir, Hit.SoKey);
  Hit.TablesPath = tablesPath(C.Dir, PlanKey);
  touchArtifact(Hit.SoPath);
  touchArtifact(Hit.TablesPath);
  return Hit;
}

void KernelCache::insertPlan(const std::string &PlanKey,
                             const std::string &SoKey,
                             const std::vector<std::vector<double>> &Tables,
                             std::optional<double> Cost) {
  Config C = config();
  if (!C.Enabled || PlanKey.empty() || SoKey.empty())
    return;
  support::RecordFile File(indexPath(C.Dir), LOCK_EX);
  support::RecordFile PlansFile(plansPath(C.Dir), LOCK_EX);
  std::map<std::string, IndexEntry> Index;
  std::map<std::string, PlanEntry> Plans;
  if (std::size_t CorruptLines =
          loadIndex(File, Index) + loadPlans(PlansFile, Plans))
    telemetry::KernelcacheCorruptEntries.add(CorruptLines);
  if (!Index.count(SoKey))
    return; // Evicted or dropped since the caller loaded it.

  // Tables first, then the record that vouches for them.
  std::string Bytes;
  writeTables(Tables, [&](const void *P, std::size_t N) {
    Bytes.append(static_cast<const char *>(P), N);
  });
  if (!support::replaceFile(tablesPath(C.Dir, PlanKey), Bytes))
    return;
  Plans[PlanKey] = PlanEntry{SoKey, tablesChecksum(Bytes), Bytes.size(), Cost};
  settle(C.Dir, C.MaxBytes, Index, Plans, SoKey, PlanKey);
  if (writeIndex(File, Index))
    writePlans(PlansFile, Plans);
}

void KernelCache::writeTables(
    const std::vector<std::vector<double>> &Tables,
    const std::function<void(const void *, std::size_t)> &Put) {
  Put(TablesMagic, sizeof TablesMagic);
  const std::uint64_t Count = Tables.size();
  Put(&Count, sizeof Count);
  for (const std::vector<double> &T : Tables) {
    const std::uint64_t Len = T.size();
    Put(&Len, sizeof Len);
    Put(T.data(), T.size() * sizeof(double));
  }
}

std::string KernelCache::populationLockPath(const std::string &Key) {
  Config C = config();
  if (!C.Enabled)
    return "";
  std::error_code EC;
  fs::create_directories(C.Dir, EC);
  return C.Dir + "/" + Key + ".lock";
}
