//===- search/PlanCache.h - Persistent plan cache ("wisdom") ----*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A persistent cache of search results, in the spirit of FFTW's "wisdom":
/// the dynamic-programming search times every candidate factorization on the
/// target machine (Section 4), which dominates the cost of producing a
/// library. Recording the winners keyed by everything that influences them —
/// transform, size, datatype, unroll threshold, cost evaluator, and a host
/// fingerprint — lets later runs skip both enumeration and timing entirely.
///
/// The file (~/.spl_wisdom by default) is a record file under the header
/// `spl-wisdom v4` with `plan` records; the format, checksums and lock
/// protocol are docs/ARCHITECTURE.md § Record files. A plan payload is the
/// key, the keep-best index and the cost, then `| <formula>`:
///
///   fft 16 complex B16 vmtime a1b2c3d4 0 1.2e-06 | F
///
/// Policy on top of the format: an unknown header invalidates the whole
/// file; corrupt or malformed lines are skipped with a warning and dropped
/// for good by the next save(), and a keep-best list they leave with a hole
/// is a miss; entries whose host fingerprint differs from the running
/// machine are carried along (so a wisdom file can roam between machines)
/// but never served as hits. save() merges with the file already on disk,
/// in-memory entries winning, so concurrent tools lose nothing but a race's
/// duplicates.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SEARCH_PLANCACHE_H
#define SPL_SEARCH_PLANCACHE_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace spl {
namespace support {
class RecordFile;
} // namespace support

namespace search {

/// Everything that determines whether a recorded plan is reusable.
struct PlanKey {
  std::string Transform;            ///< "fft", "wht", ...
  std::int64_t Size = 0;            ///< Transform size N.
  std::string Datatype = "complex"; ///< The #datatype candidates compile as.
  std::int64_t UnrollThreshold = 0; ///< The -B value in effect.
  std::string Evaluator;            ///< "opcount" | "vmtime" | "nativetime".
  std::string Host;                 ///< PlanCache::hostFingerprint().

  /// Canonical single-token-per-field key text, e.g.
  /// "fft 16 complex B16 vmtime a1b2c3d4e5f60708".
  std::string str() const;
};

/// One recorded plan: the winning formula (Cambridge Polish text, parse it
/// back with parseFormulaString) and its measured cost.
struct PlanEntry {
  std::string FormulaText;
  double Cost = 0;
};

/// The persistent plan store. Thread-safe: the parallel search queries and
/// records plans from worker threads.
class PlanCache {
public:
  explicit PlanCache(Diagnostics &Diags) : Diags(Diags) {}

  /// Fingerprint of the running machine (FNV-1a over CPU model, OS and
  /// compiler), hex text. Computed once and cached.
  static const std::string &hostFingerprint();

  /// $SPL_WISDOM if set, else $HOME/.spl_wisdom, else ".spl_wisdom".
  static std::string defaultPath();

  /// Merges the entries of \p Path into memory. A missing file is not an
  /// error (returns true, loads nothing); unreadable or wrong-version files
  /// warn and return false; malformed lines warn and are skipped.
  bool load(const std::string &Path);

  /// Writes every entry to \p Path, first merging with whatever the file
  /// currently holds (disk entries survive unless memory has the same key).
  /// Returns false (with a warning) when the file cannot be written.
  bool save(const std::string &Path) const;

  /// The recorded keep-best list for \p K, best first; nullopt on miss
  /// (also when a corrupt line left a hole in the list). Hits and misses
  /// are counted for the summary.
  std::optional<std::vector<PlanEntry>> lookup(const PlanKey &K) const;

  /// Records (replaces) the keep-best list for \p K.
  void insert(const PlanKey &K, std::vector<PlanEntry> Entries);

  /// Number of distinct keys currently held.
  size_t size() const;

  /// Lookup / persistence counters for the end-of-run summary.
  struct Stats {
    size_t Hits = 0;     ///< lookup() returned a plan list.
    size_t Misses = 0;   ///< lookup() found nothing.
    size_t Inserts = 0;  ///< insert() calls.
    size_t Loaded = 0;   ///< Plan lines accepted by load().
    size_t Skipped = 0;  ///< Malformed plan lines skipped by load().
  };
  Stats stats() const;

  /// One-line human summary, e.g. "wisdom: 7 hits, 3 misses, 12 plans held".
  std::string summary() const;

  /// Emits summary() as a note through the diagnostics engine.
  void reportSummary() const;

private:
  /// Reads \p File's records into \p Into. With \p Report, bad headers
  /// and lines are warned about and counted in the stats; without it (the
  /// re-read in save(), after load() already reported) they are skipped
  /// silently.
  bool readRecords(const support::RecordFile &File, const std::string &Path,
                   std::map<std::string, std::vector<PlanEntry>> &Into,
                   bool Report) const;

  Diagnostics &Diags;
  mutable std::mutex M;
  std::map<std::string, std::vector<PlanEntry>> Plans;
  mutable Stats S;
};

} // namespace search
} // namespace spl

#endif // SPL_SEARCH_PLANCACHE_H
