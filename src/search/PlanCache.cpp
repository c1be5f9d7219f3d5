//===- search/PlanCache.cpp - Persistent plan cache ("wisdom") ----------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/PlanCache.h"

#include "support/FaultInjection.h"
#include "support/HostInfo.h"
#include "support/RecordFile.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
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

bool PlanCache::readRecords(
    const support::RecordFile &File, const std::string &Path,
    std::map<std::string, std::vector<PlanEntry>> &Into,
    bool Report) const {
  support::RecordFile::Contents C = File.read(VersionHeader, "plan");
  if (!C.HeaderOk) {
    if (Report)
      Diags.warning(SourceLoc(), "wisdom file '" + Path +
                                     "' has an unrecognized version header; "
                                     "ignoring it");
    return false;
  }

  auto Reject = [&](unsigned LineNo, const char *Why) {
    if (!Report)
      return;
    ++S.Skipped;
    telemetry::WisdomCorruptLines.add();
    Diags.warning(SourceLoc(), "wisdom file '" + Path + "' line " +
                                   std::to_string(LineNo) + ": " + Why +
                                   "; skipping entry");
  };
  for (unsigned LineNo : C.Rejected)
    Reject(LineNo, "not a 'plan' record with a matching checksum (corrupt "
                   "or truncated entry)");

  for (const support::RecordFile::Record &R : C.Records) {
    std::istringstream SS(R.Payload);
    std::string Transform, Datatype, Unroll, Evaluator, Host, Sep;
    std::int64_t Size = 0;
    int Index = 0;
    double Cost = 0;
    if (!(SS >> Transform >> Size >> Datatype >> Unroll >> Evaluator >> Host >>
          Index >> Cost >> Sep) ||
        Sep != "|") {
      Reject(R.Line, "malformed plan fields");
      continue;
    }
    if (Size < 2 || Unroll.size() < 2 || Unroll[0] != 'B' || Index < 0 ||
        Index >= 64 || !(Cost >= 0)) {
      Reject(R.Line, "plan fields out of range");
      continue;
    }
    std::string Formula;
    std::getline(SS, Formula);
    if (!Formula.empty() && Formula.front() == ' ')
      Formula.erase(0, 1);
    if (Formula.empty()) {
      Reject(R.Line, "empty formula text");
      continue;
    }

    std::string Key = Transform + ' ' + std::to_string(Size) + ' ' + Datatype +
                      ' ' + Unroll + ' ' + Evaluator + ' ' + Host;
    auto &Entries = Into[Key];
    if (Entries.size() <= static_cast<size_t>(Index))
      Entries.resize(Index + 1);
    Entries[static_cast<size_t>(Index)] = {Formula, Cost};
    if (Report) {
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
  support::RecordFile File(Path, LOCK_SH);
  if (!readRecords(File, Path, Incoming, /*Report=*/true))
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

  // The exclusive lock spans the read-merge-write, so concurrent savers
  // (spld, splrun, tests) never drop each other's new entries.
  support::RecordFile File(Path, LOCK_EX);

  // Merge-on-save: what is on disk survives unless we hold the same key.
  std::map<std::string, std::vector<PlanEntry>> Merged;
  // Corrupt/alien files simply contribute nothing; their lines were already
  // reported (if at all) by an explicit load(), so stay silent here.
  readRecords(File, Path, Merged, /*Report=*/false);
  for (const auto &[Key, Entries] : Plans)
    Merged[Key] = Entries;

  std::vector<std::string> Payloads;
  for (const auto &[Key, Entries] : Merged)
    for (size_t I = 0; I != Entries.size(); ++I) {
      if (Entries[I].FormulaText.empty())
        continue; // A gap left by a sparse/duplicated index on load.
      Payloads.push_back(Key + ' ' + std::to_string(I) + ' ' +
                         formatCost(Entries[I].Cost) + " | " +
                         Entries[I].FormulaText);
    }
  if (!File.write(VersionHeader, "plan", Payloads)) {
    Diags.warning(SourceLoc(), "cannot write wisdom file '" + Path + "'");
    return false;
  }
  return true;
}

std::optional<std::vector<PlanEntry>> PlanCache::lookup(const PlanKey &K) const {
  std::lock_guard<std::mutex> Lock(M);
  auto Hit = Plans.find(K.str());
  // A list with a hole (a corrupt line dropped one of its entries) is not
  // the search's answer: serve it as a miss so the caller searches again.
  if (Hit == Plans.end() || Hit->second.empty() ||
      std::any_of(Hit->second.begin(), Hit->second.end(),
                  [](const PlanEntry &E) { return E.FormulaText.empty(); })) {
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
