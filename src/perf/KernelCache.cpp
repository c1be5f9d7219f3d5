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

// v2: both record kinds in one record file, every line
// "entry <line-checksum> <kind> <key> <file-checksum> <file-bytes> ...":
//   kernel <key> <so-checksum> <so-bytes>
//   plan <plan-key> <tables-checksum> <tables-bytes> <so-key> <cost|->
// (docs/KERNEL_CACHE.md). v1 kept its plan records in a second file,
// `plans`. An unknown version header invalidates the whole index; the
// artifacts it described become orphans and are reclaimed by the next
// insert's sweep, v1's `plans` file with them. The cache only ever
// degrades to recompilation, so dropping it is cheap.
constexpr const char *IndexVersionHeader = "spl-kernelcache v2";
constexpr const char *IndexTag = "entry";

/// The tables blob's magic (KernelCache::tablesBlob; the host fingerprint
/// is part of the plan key, so host byte order is safe).
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

/// What a record vouches for its file (`<key>.so` or `<plan-key>.tables`):
/// the file's checksum and size.
struct Vouched {
  std::string Cksum;
  std::uint64_t Bytes = 0;
};

/// One plan record: its tables file, the artifact it runs, a rule cost.
struct PlanEntry {
  Vouched Tables;
  std::string SoKey;
  std::optional<double> Cost;
};

/// The index: both record kinds, each by its key.
struct Index {
  std::map<std::string, Vouched> Kernels;
  std::map<std::string, PlanEntry> Plans;
};

std::string indexPath(const std::string &Dir) { return Dir + "/index"; }
std::string soPath(const std::string &Dir, const std::string &Key) {
  return Dir + "/" + Key + ".so";
}
std::string tablesPath(const std::string &Dir, const std::string &PlanKey) {
  return Dir + "/" + PlanKey + ".tables";
}

/// Parses the index. A missing index is an empty cache; a wrong version
/// header invalidates everything. Corrupt or checksum-failing lines are
/// skipped, and counted when \p CountCorrupt (an exclusive writer, which
/// rewrites them away).
Index loadIndex(const support::RecordFile &File, bool CountCorrupt) {
  support::RecordFile::Contents C = File.read(IndexVersionHeader, IndexTag);
  Index Into;
  std::size_t Corrupt = C.Rejected.size();
  for (const support::RecordFile::Record &R : C.Records) {
    std::istringstream PS(R.Payload);
    std::string Kind, Key, Cksum, SoKey, Cost;
    long long Bytes = 0;
    const bool Ok = (PS >> Kind >> Key >> Cksum >> Bytes) &&
                    Cksum.size() == 16 && Bytes > 0;
    const Vouched V{Cksum, static_cast<std::uint64_t>(Bytes)};
    if (Ok && Kind == "kernel") {
      Into.Kernels[Key] = V;
      continue;
    }
    if (Ok && Kind == "plan" && (PS >> SoKey >> Cost)) {
      PlanEntry E{V, SoKey, {}};
      char *End = nullptr;
      if (Cost != "-")
        E.Cost = std::strtod(Cost.c_str(), &End);
      if (!E.Cost || (End != Cost.c_str() && *End == '\0')) {
        Into.Plans[Key] = std::move(E);
        continue;
      }
    }
    ++Corrupt;
  }
  if (CountCorrupt && Corrupt)
    telemetry::KernelcacheCorruptEntries.add(Corrupt);
  return Into;
}

/// Rewrites the index. False on write failure.
bool writeIndex(const support::RecordFile &File, const Index &I) {
  auto Fields = [](const std::string &Key, const Vouched &V) {
    return Key + ' ' + V.Cksum + ' ' + std::to_string(V.Bytes);
  };
  std::vector<std::string> Payloads;
  for (const auto &[Key, V] : I.Kernels)
    Payloads.push_back("kernel " + Fields(Key, V));
  for (const auto &[Key, E] : I.Plans) {
    std::string Cost = "-";
    if (E.Cost) {
      // Hex floats round-trip exactly through strtod.
      char Buf[64];
      std::snprintf(Buf, sizeof Buf, "%a", *E.Cost);
      Cost = Buf;
    }
    Payloads.push_back("plan " + Fields(Key, E.Tables) + ' ' + E.SoKey + ' ' +
                       Cost);
  }
  return File.write(IndexVersionHeader, IndexTag, Payloads);
}

/// The one artifact checksum, for `.so` and `.tables` files alike: FNV-1a
/// over 64-bit words, then the tail bytes, as 16 hex digits. Byte-wise
/// FNV-1a (fnv1aHex, which hashes keys and record lines) spends ~1.6 ms
/// per MiB, as much as the rest of a warm fft 2^16 probe; one multiply per
/// word keeps the property that matters here: changing any one word
/// always changes the sum (each step is a bijection of the running state).
std::string checksum(const std::string &Bytes) {
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

/// True when \p Bytes are the file \p V vouches for.
bool vouches(const Vouched &V, const std::optional<std::string> &Bytes) {
  return Bytes && Bytes->size() == V.Bytes && checksum(*Bytes) == V.Cksum;
}

enum class ArtifactState { Unindexed, Corrupt, Ok };

/// Checks \p Key's artifact against its index record.
ArtifactState verifyArtifact(const std::string &Dir, const Index &I,
                             const std::string &Key) {
  auto It = I.Kernels.find(Key);
  if (It == I.Kernels.end())
    return ArtifactState::Unindexed;
  return vouches(It->second, support::readFile(soPath(Dir, Key)))
             ? ArtifactState::Ok
             : ArtifactState::Corrupt;
}

/// Refreshes the artifact's mtime so LRU eviction sees the hit (best
/// effort; a failed touch only ages the entry).
void touchArtifact(const std::string &Path) {
  ::utimensat(AT_FDCWD, Path.c_str(), nullptr, 0);
}

/// Brings the directory to what the index vouches for (call holding its
/// exclusive lock): drops kernel records whose artifact vanished and plan
/// records whose artifact left the index, evicts least-recently-used
/// artifacts and tables past \p MaxBytes, and removes every unreferenced
/// artifact, tables file and temp file. \p KeepSo and \p KeepPlan, just
/// inserted, always survive.
void settle(const std::string &Dir, std::uint64_t MaxBytes, Index &I,
            const std::string &KeepSo, const std::string &KeepPlan) {
  std::error_code EC;
  for (auto It = I.Kernels.begin(); It != I.Kernels.end();) {
    if (It->first != KeepSo && !fs::exists(soPath(Dir, It->first), EC))
      It = I.Kernels.erase(It);
    else
      ++It;
  }
  // Drops the plan records whose artifact left the index; their bytes.
  auto DropUnbacked = [&] {
    std::uint64_t Bytes = 0;
    for (auto It = I.Plans.begin(); It != I.Plans.end();) {
      if (I.Kernels.count(It->second.SoKey)) {
        ++It;
        continue;
      }
      Bytes += It->second.Tables.Bytes;
      It = I.Plans.erase(It);
    }
    return Bytes;
  };
  DropUnbacked();

  // LRU eviction past the byte budget: oldest mtime goes first (probes
  // refresh mtimes on every hit). Evicting an artifact takes its plan
  // records with it. The just-inserted entries always survive, so one
  // oversized kernel degrades the bound rather than thrashing forever.
  std::uint64_t Total = 0;
  for (const auto &[K, V] : I.Kernels)
    Total += V.Bytes;
  for (const auto &[K, E] : I.Plans)
    Total += E.Tables.Bytes;
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
    const auto Kept = I.Plans.find(KeepPlan);
    const std::string KeepPlanSo =
        Kept != I.Plans.end() ? Kept->second.SoKey : std::string();
    for (const auto &[K, V] : I.Kernels)
      if (K != KeepSo && K != KeepPlanSo)
        AddVictim(soPath(Dir, K), K, false);
    for (const auto &[K, E] : I.Plans)
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
        auto It = I.Plans.find(V.Key);
        if (It == I.Plans.end())
          continue; // Went with its artifact.
        Total -= It->second.Tables.Bytes;
        I.Plans.erase(It);
      } else {
        Total -= I.Kernels[V.Key].Bytes;
        I.Kernels.erase(V.Key);
        std::remove((Dir + "/" + V.Key + ".lock").c_str());
        Total -= DropUnbacked();
      }
      telemetry::KernelcacheEvictions.add();
    }
  }

  // Orphan sweep: artifacts and tables nothing vouches for (evicted, crash
  // leftovers, alien files, entries of a discarded corrupt index), stale
  // temp files and v1's retired `plans` file are reclaimed. All writers
  // hold the exclusive lock, so anything unreferenced here is garbage.
  for (const auto &Entry : fs::directory_iterator(Dir, EC)) {
    const std::string Name = Entry.path().filename().string();
    const std::string Ext = Entry.path().extension().string();
    const std::string Key = Entry.path().stem().string();
    bool Garbage = Name.find(".so.tmp") != std::string::npos ||
                   Name.find(".tables.tmp") != std::string::npos ||
                   Name == "plans" || Name == "plans.lock";
    if (Ext == ".so")
      Garbage = !I.Kernels.count(Key);
    else if (Ext == ".tables")
      Garbage = !I.Plans.count(Key);
    if (Garbage)
      std::remove(Entry.path().c_str());
  }
}

/// Drops \p SoKey's record and artifact and \p PlanKey's record and tables
/// (either key may be "") under the exclusive lock.
void drop(const std::string &Dir, const std::string &SoKey,
          const std::string &PlanKey) {
  support::RecordFile File(indexPath(Dir), LOCK_EX);
  Index I = loadIndex(File, false);
  if (I.Kernels.erase(SoKey) + I.Plans.erase(PlanKey))
    writeIndex(File, I);
  if (!SoKey.empty())
    std::remove(soPath(Dir, SoKey).c_str());
  if (!PlanKey.empty())
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
    State = verifyArtifact(C.Dir, loadIndex(File, false), Key);
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

  // The exclusive lock across read-rewrite-rename: inserts, evictions, and
  // the orphan sweep all serialize here.
  support::RecordFile File(indexPath(C.Dir), LOCK_EX);
  Index I = loadIndex(File, true);

  // Artifact first, then the index that vouches for it: a crash between
  // the two leaves an orphan, never an index entry pointing at garbage.
  std::string Dest = soPath(C.Dir, Key);
  // Executable, like the compiler's own output: the trial runner is an
  // artifact too.
  if (!support::replaceFile(Dest, *Bytes) || ::chmod(Dest.c_str(), 0755) != 0)
    return std::nullopt;
  I.Kernels[Key] = Vouched{checksum(*Bytes), Bytes->size()};
  settle(C.Dir, C.MaxBytes, I, Key, "");
  if (!writeIndex(File, I))
    return std::nullopt;
  telemetry::KernelcacheInserts.add();
  return Dest;
}

void KernelCache::remove(const std::string &Key) {
  Config C = config();
  if (C.Enabled)
    drop(C.Dir, Key, "");
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
    support::RecordFile File(indexPath(C.Dir), LOCK_SH);
    const Index I = loadIndex(File, false);
    auto It = I.Plans.find(PlanKey);
    if (It == I.Plans.end())
      return std::nullopt;
    const PlanEntry &E = It->second;
    Hit.SoKey = E.SoKey;
    Hit.Cost = E.Cost;
    State = verifyArtifact(C.Dir, I, E.SoKey);
    if (State == ArtifactState::Ok) {
      // The tables are read once, through the descriptor the trial hands
      // on, so the trial child maps the bytes checked here.
      Hit.TablesFd.reset(::open(tablesPath(C.Dir, PlanKey).c_str(),
                                O_RDONLY | O_CLOEXEC));
      std::optional<std::string> Bytes;
      if (Hit.TablesFd.get() >= 0)
        Bytes = support::readAll(Hit.TablesFd.get());
      TablesOk = vouches(E.Tables, Bytes) && tablePointers(*Bytes);
      if (TablesOk)
        Hit.Tables = std::move(*Bytes);
    }
  }
  if (State != ArtifactState::Ok || !TablesOk) {
    // A record whose artifact left the index is stale, not corrupt; a
    // damaged artifact or tables file is both counted and dropped. Either
    // way the caller's full path writes the record again.
    if (State != ArtifactState::Unindexed)
      telemetry::KernelcacheCorruptEntries.add();
    drop(C.Dir, State == ArtifactState::Corrupt ? Hit.SoKey : "", PlanKey);
    return std::nullopt;
  }
  telemetry::KernelcacheHits.add();
  Hit.SoPath = soPath(C.Dir, Hit.SoKey);
  touchArtifact(Hit.SoPath);
  ::futimens(Hit.TablesFd.get(), nullptr);
  return Hit;
}

void KernelCache::insertPlan(const std::string &PlanKey,
                             const std::string &SoKey,
                             const std::string &Tables,
                             std::optional<double> Cost) {
  Config C = config();
  if (!C.Enabled || PlanKey.empty() || SoKey.empty())
    return;
  support::RecordFile File(indexPath(C.Dir), LOCK_EX);
  Index I = loadIndex(File, true);
  if (!I.Kernels.count(SoKey))
    return; // Evicted or dropped since the caller loaded it.

  // Tables first, then the record that vouches for them.
  if (!support::replaceFile(tablesPath(C.Dir, PlanKey), Tables))
    return;
  I.Plans[PlanKey] = PlanEntry{Vouched{checksum(Tables), Tables.size()},
                               SoKey, Cost};
  settle(C.Dir, C.MaxBytes, I, SoKey, PlanKey);
  writeIndex(File, I);
}

std::string KernelCache::tablesBlob(
    const std::vector<std::vector<std::complex<double>>> &Tables) {
  std::size_t Size = sizeof TablesMagic + 8;
  for (const auto &T : Tables)
    Size += 8 + T.size() * sizeof(double);
  std::string Blob;
  Blob.reserve(Size);
  auto Put = [&](const void *P, std::size_t N) {
    Blob.append(static_cast<const char *>(P), N);
  };
  Put(TablesMagic, sizeof TablesMagic);
  const std::uint64_t Count = Tables.size();
  Put(&Count, sizeof Count);
  for (const auto &T : Tables) {
    const std::uint64_t Len = T.size();
    Put(&Len, sizeof Len);
    for (const std::complex<double> &V : T) {
      const double Re = V.real();
      Put(&Re, sizeof Re);
    }
  }
  return Blob;
}

std::optional<std::vector<const double *>>
KernelCache::tablePointers(const std::string &Blob) {
  // Every table starts a multiple of 8 bytes into the blob, whose buffer
  // (at least 16 bytes, so never inline in the string) comes from
  // operator new: every pointer is aligned for a double.
  std::size_t Pos = sizeof TablesMagic;
  auto Get = [&](std::uint64_t &V) {
    if (Blob.size() - Pos < sizeof V)
      return false;
    std::memcpy(&V, Blob.data() + Pos, sizeof V);
    Pos += sizeof V;
    return true;
  };
  std::uint64_t Count = 0;
  if (Blob.compare(0, sizeof TablesMagic, TablesMagic, sizeof TablesMagic) ||
      !Get(Count) || Count > Blob.size() / 8)
    return std::nullopt;
  std::vector<const double *> Tables;
  Tables.reserve(Count);
  for (std::uint64_t T = 0; T != Count; ++T) {
    std::uint64_t Len = 0;
    if (!Get(Len) || Len > (Blob.size() - Pos) / sizeof(double))
      return std::nullopt;
    Tables.push_back(reinterpret_cast<const double *>(Blob.data() + Pos));
    Pos += Len * sizeof(double);
  }
  if (Pos != Blob.size())
    return std::nullopt;
  return Tables;
}

std::string KernelCache::populationLockPath(const std::string &Key) {
  Config C = config();
  if (!C.Enabled)
    return "";
  std::error_code EC;
  fs::create_directories(C.Dir, EC);
  return C.Dir + "/" + Key + ".lock";
}
