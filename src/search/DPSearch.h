//===- search/DPSearch.h - Dynamic-programming search -----------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The search engine of Section 4: dynamic programming over FFT
/// factorizations. Small sizes (2..MaxLeaf) are searched exhaustively over
/// Equation-10 factorizations with fully unrolled straight-line code; large
/// sizes use the right-most binary Cooley-Tukey factorization with r <=
/// MaxLeaf, keeping the best k (k=3 in the paper) formulas per size because
/// the best formula for one size is not necessarily the best sub-formula
/// for a larger one.
///
/// Two scalability additions over the paper's engine:
///  * candidate evaluation fans out through parallelFor (SearchOptions::
///    Threads wide) — candidates of one size are independent, and the
///    winner is picked by a deterministic first-minimum scan, so any thread
///    count returns exactly the serial result for deterministic evaluators;
///  * results can be recorded in / served from a persistent PlanCache
///    ("wisdom"), letting warm runs skip enumeration and timing entirely.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SEARCH_DPSEARCH_H
#define SPL_SEARCH_DPSEARCH_H

#include "search/Evaluator.h"
#include "search/PlanCache.h"

#include <map>
#include <vector>

namespace spl {
namespace search {

/// Search configuration.
struct SearchOptions {
  /// Largest straight-line sub-transform (the paper uses 64).
  std::int64_t MaxLeaf = 64;

  /// How many best formulas to keep per large size (paper: 3).
  int KeepBest = 3;

  /// Worker threads for candidate evaluation (1: serial). Timed evaluators
  /// still serialize the measurement itself; with them, extra threads
  /// overlap candidate compilation with timing.
  int Threads = 1;

  /// Transform family name used in wisdom cache keys.
  std::string Transform = "fft";

  /// Wall-clock budget for the whole search (default: unbounded). When it
  /// expires mid-search the engine stops evaluating, scores the remaining
  /// candidates as infinite cost, and returns the best formula found so far
  /// — it never returns "no formula" merely because time ran out. The first
  /// expiry observed bumps `search.deadline_exceeded`, and truncated result
  /// sets are not recorded into wisdom.
  support::Deadline Deadline;
};

/// One search result.
struct Candidate {
  FormulaRef Formula;
  double Cost = 0;
};

/// The dynamic-programming search engine.
class DPSearch {
public:
  DPSearch(Evaluator &Eval, Diagnostics &Diags,
           SearchOptions Opts = SearchOptions(), PlanCache *Wisdom = nullptr)
      : Eval(Eval), Diags(Diags), Opts(Opts), Wisdom(Wisdom) {}

  /// Exhaustively searches sizes 2,4,...,MaxN (powers of two, MaxN <=
  /// MaxLeaf) and returns the winner per size. Results are cached for use
  /// by searchLarge.
  std::map<std::int64_t, Candidate> searchSmall(std::int64_t MaxN);

  /// Searches size N > MaxLeaf with the right-most binary strategy; returns
  /// up to KeepBest candidates, best first. Small sizes must have been
  /// searched first (searchSmall(MaxLeaf)); missing entries are filled in
  /// on demand.
  std::vector<Candidate> searchLarge(std::int64_t N);

  /// The best known formula for any size (small winner or large keep-best
  /// head). Runs searches on demand. Sizes up to MaxLeaf may be any
  /// integer >= 2 (mixed radix included); larger sizes must be powers of
  /// two (the right-most binary strategy).
  std::optional<Candidate> best(std::int64_t N);

  /// The wisdom key this search uses for size \p N (exposed for tests and
  /// tools that want to inspect or pre-seed the cache).
  PlanKey wisdomKey(std::int64_t N) const;

private:
  Evaluator &Eval;
  Diagnostics &Diags;
  SearchOptions Opts;
  PlanCache *Wisdom = nullptr;

  std::map<std::int64_t, Candidate> SmallBest;
  std::map<std::int64_t, std::vector<Candidate>> LargeBest;

  std::optional<Candidate> searchSmallOne(std::int64_t N);
  const std::vector<Candidate> &largeEntries(std::int64_t N);

  /// Records (once per search) that the deadline cut evaluation short.
  void noteDeadlineOnce();
  bool DeadlineNoted = false;

  /// Costs every candidate, Opts.Threads at a time. Candidate i with
  /// Parts[i] is a Cooley-Tukey step, costed from its children's costs
  /// when the evaluator composes and lowered otherwise. Result i
  /// corresponds to Cands[i]; nullopt where evaluation failed.
  std::vector<std::optional<double>>
  costAll(const std::vector<FormulaRef> &Cands,
          const std::vector<CooleyTukeyParts> &Parts = {});

  /// Parses a wisdom entry back into a candidate; warns and returns nullopt
  /// when the recorded text does not round-trip to a size-N formula.
  std::optional<Candidate> parseWisdomEntry(const PlanEntry &E, std::int64_t N);

  /// Cached keep-best list for size \p N, if wisdom holds a usable one.
  std::optional<std::vector<Candidate>> entriesFromWisdom(std::int64_t N);

  void recordWisdom(std::int64_t N, const std::vector<Candidate> &Entries);
};

} // namespace search
} // namespace spl

#endif // SPL_SEARCH_DPSEARCH_H
