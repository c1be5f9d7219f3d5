//===- search/PlanCache.cpp - Persistent plan cache ("wisdom") ----------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/PlanCache.h"

#include "support/FaultInjection.h"
#include "support/FileLock.h"
#include "support/HostInfo.h"
#include "support/StrUtil.h"
#include "telemetry/Metrics.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

using namespace spl;
using namespace spl::search;

namespace {

// v2 added a per-line FNV-1a checksum between the "plan" tag and the
// payload; v3 added a codegen-variant token before the '|' separator, and
// v4 dropped it again (the runtime planner picks the variant at plan
// time). Files under any other header are ignored with a warning: wisdom
// is a cache, so dropping an old file only costs a re-search.
constexpr const char *VersionHeader = "spl-wisdom v4";

std::string formatCost(double Cost) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", Cost);
  return Buf;
}

} // namespace

std::string PlanKey::str() const {
  std::ostringstream SS;
  SS << Transform << ' ' << Size << ' ' << Datatype << " B" << UnrollThreshold
     << ' ' << Evaluator << ' ' << Host;
  return SS.str();
}

const std::string &PlanCache::hostFingerprint() {
  // Shared recipe (support::HostInfo::fingerprint), so wisdom and the
  // kernel cache invalidate together when the host changes.
  return HostInfo::fingerprint();
}

std::string PlanCache::defaultPath() {
  if (const char *Env = std::getenv("SPL_WISDOM"))
    if (*Env)
      return Env;
  if (const char *Home = std::getenv("HOME"))
    if (*Home)
      return std::string(Home) + "/.spl_wisdom";
  return ".spl_wisdom";
}

bool PlanCache::loadLocked(
    const std::string &Path,
    std::map<std::string, std::vector<PlanEntry>> &Into,
    bool CountStats) const {
  std::ifstream In(Path);
  if (!In)
    return true; // Missing wisdom is a cold start, not an error.

  std::string Line;
  if (!std::getline(In, Line) || Line != VersionHeader) {
    Diags.warning(SourceLoc(), "wisdom file '" + Path +
                                   "' has an unrecognized version header; "
                                   "ignoring it");
    return false;
  }

  unsigned LineNo = 1;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;

    auto Reject = [&](const char *Why) {
      if (CountStats) {
        ++S.Skipped;
        telemetry::WisdomCorruptLines.add();
      }
      Diags.warning(SourceLoc(), "wisdom file '" + Path + "' line " +
                                     std::to_string(LineNo) + ": " + Why +
                                     "; skipping entry");
    };

    std::istringstream SS(Line);
    std::string Tag, Checksum, Transform, Datatype, Unroll, Evaluator, Host,
        Sep;
    std::int64_t Size = 0;
    int Index = 0;
    double Cost = 0;
    if (!(SS >> Tag) || Tag != "plan") {
      Reject("expected a 'plan' record");
      continue;
    }
    if (!(SS >> Checksum)) {
      Reject("missing line checksum");
      continue;
    }
    // Everything after "plan <checksum> " is the checksummed payload.
    std::string Payload;
    std::getline(SS, Payload);
    if (!Payload.empty() && Payload.front() == ' ')
      Payload.erase(0, 1);
    if (fnv1aHex(Payload) != Checksum) {
      Reject("line checksum mismatch (corrupt or truncated entry)");
      continue;
    }
    SS.clear();
    SS.str(Payload);
    if (!(SS >> Transform >> Size >> Datatype >> Unroll >> Evaluator >> Host >>
          Index >> Cost >> Sep) ||
        Sep != "|") {
      Reject("malformed plan fields");
      continue;
    }
    if (Size < 2 || Unroll.size() < 2 || Unroll[0] != 'B' || Index < 0 ||
        Index >= 64 || !(Cost >= 0)) {
      Reject("plan fields out of range");
      continue;
    }
    std::string Formula;
    std::getline(SS, Formula);
    if (!Formula.empty() && Formula.front() == ' ')
      Formula.erase(0, 1);
    if (Formula.empty()) {
      Reject("empty formula text");
      continue;
    }

    std::string Key = Transform + ' ' + std::to_string(Size) + ' ' + Datatype +
                      ' ' + Unroll + ' ' + Evaluator + ' ' + Host;
    auto &Entries = Into[Key];
    if (Entries.size() <= static_cast<size_t>(Index))
      Entries.resize(Index + 1);
    Entries[static_cast<size_t>(Index)] = {Formula, Cost};
    if (CountStats) {
      ++S.Loaded;
      telemetry::WisdomLoaded.add();
    }
  }
  return true;
}

bool PlanCache::load(const std::string &Path) {
  std::lock_guard<std::mutex> Lock(M);
  if (fault::at("wisdom-load")) {
    Diags.warning(SourceLoc(), "cannot read wisdom file '" + Path + "' (" +
                                   fault::describe("wisdom-load") + ")");
    return false;
  }
  std::map<std::string, std::vector<PlanEntry>> Incoming;
  // Shared lock: don't read a file mid-merge-rename from another process.
  FileLock FL(Path + ".lock", LOCK_SH);
  if (!loadLocked(Path, Incoming, /*CountStats=*/true))
    return false;
  // Incoming entries fill gaps; entries already in memory win.
  for (auto &[Key, Entries] : Incoming)
    Plans.emplace(Key, std::move(Entries));
  return true;
}

bool PlanCache::save(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(M);
  if (fault::at("wisdom-save")) {
    Diags.warning(SourceLoc(), "cannot write wisdom file '" + Path + "' (" +
                                   fault::describe("wisdom-save") + ")");
    return false;
  }

  // Exclusive lock on <wisdom>.lock across the whole read-merge-write-rename
  // window: without it two processes saving concurrently can both merge
  // against the same on-disk state and the second rename silently drops the
  // first writer's new entries (spld, splrun, and tests all cooperate
  // through the same lock file).
  FileLock FL(Path + ".lock", LOCK_EX);

  // Merge-on-save: what is on disk survives unless we hold the same key.
  std::map<std::string, std::vector<PlanEntry>> Merged;
  // Corrupt/alien files simply contribute nothing; their lines were already
  // counted (if at all) by an explicit load(), so keep stats untouched here.
  loadLocked(Path, Merged, /*CountStats=*/false);
  for (const auto &[Key, Entries] : Plans)
    Merged[Key] = Entries;

  std::string TmpPath = Path + ".tmp";
  {
    std::ofstream Out(TmpPath, std::ios::trunc);
    if (!Out) {
      Diags.warning(SourceLoc(), "cannot write wisdom file '" + Path + "'");
      return false;
    }
    Out << VersionHeader << '\n';
    for (const auto &[Key, Entries] : Merged)
      for (size_t I = 0; I != Entries.size(); ++I) {
        if (Entries[I].FormulaText.empty())
          continue; // A gap left by a sparse/duplicated index on load.
        std::string Payload = Key + ' ' + std::to_string(I) + ' ' +
                              formatCost(Entries[I].Cost) + " | " +
                              Entries[I].FormulaText;
        Out << "plan " << fnv1aHex(Payload) << ' ' << Payload << '\n';
      }
    if (!Out.good()) {
      Diags.warning(SourceLoc(), "error writing wisdom file '" + Path + "'");
      return false;
    }
  }
  if (std::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    Diags.warning(SourceLoc(), "cannot replace wisdom file '" + Path + "'");
    std::remove(TmpPath.c_str());
    return false;
  }
  return true;
}

std::optional<std::vector<PlanEntry>> PlanCache::lookup(const PlanKey &K) const {
  std::lock_guard<std::mutex> Lock(M);
  auto Hit = Plans.find(K.str());
  if (Hit == Plans.end() || Hit->second.empty()) {
    ++S.Misses;
    telemetry::WisdomMisses.add();
    return std::nullopt;
  }
  ++S.Hits;
  telemetry::WisdomHits.add();
  return Hit->second;
}

void PlanCache::insert(const PlanKey &K, std::vector<PlanEntry> Entries) {
  std::lock_guard<std::mutex> Lock(M);
  ++S.Inserts;
  telemetry::WisdomInserts.add();
  Plans[K.str()] = std::move(Entries);
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Plans.size();
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return S;
}

std::string PlanCache::summary() const {
  std::lock_guard<std::mutex> Lock(M);
  std::ostringstream SS;
  SS << "wisdom: " << S.Hits << " hit" << (S.Hits == 1 ? "" : "s") << ", "
     << S.Misses << " miss" << (S.Misses == 1 ? "" : "es") << ", "
     << Plans.size() << " plan key" << (Plans.size() == 1 ? "" : "s")
     << " held";
  if (S.Skipped)
    SS << ", " << S.Skipped << " corrupt line"
       << (S.Skipped == 1 ? "" : "s") << " skipped";
  return SS.str();
}

void PlanCache::reportSummary() const {
  Diags.note(SourceLoc(), summary());
}
