//===- search/DPSearch.cpp - Dynamic-programming search -----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/DPSearch.h"

#include "frontend/Parser.h"
#include "gen/Enumerate.h"
#include "gen/Rules.h"
#include "ir/Builder.h"
#include "support/ThreadPool.h"
#include "telemetry/Metrics.h"

#include <algorithm>
#include <atomic>
#include <limits>

using namespace spl;
using namespace spl::search;

PlanKey DPSearch::wisdomKey(std::int64_t N) const {
  PlanKey K;
  // The search-space shape (leaf bound, keep-k) changes what the winner can
  // be, so it is folded into the transform token.
  K.Transform = Opts.Transform + "-L" + std::to_string(Opts.MaxLeaf) + "-k" +
                std::to_string(Opts.KeepBest);
  K.Size = N;
  K.Datatype = Eval.datatype();
  K.UnrollThreshold = Eval.options().UnrollThreshold;
  K.Evaluator = Eval.kindName();
  K.Host = PlanCache::hostFingerprint();
  return K;
}

void DPSearch::noteDeadlineOnce() {
  if (DeadlineNoted)
    return;
  DeadlineNoted = true;
  telemetry::SearchDeadlineExceeded.add();
  Diags.warning(SourceLoc(), "search deadline exceeded; remaining candidates "
                             "are scored as infinite cost and the best "
                             "formula found so far wins");
}

std::vector<std::optional<double>>
DPSearch::costAll(const std::vector<FormulaRef> &Cands,
                  const std::vector<CooleyTukeyParts> &Parts) {
  std::vector<std::optional<double>> Costs(Cands.size());
  std::atomic<bool> Skipped{false}; // noteDeadlineOnce is not thread-safe.
  parallelFor(Cands.size(), Opts.Threads, [&](size_t I) {
    if (Opts.Deadline.expired()) {
      // Budget spent: skip even candidate compilation, score the rest as
      // losers, and let the first-minimum scan return best-so-far.
      Skipped.store(true, std::memory_order_relaxed);
      Costs[I] = std::numeric_limits<double>::infinity();
      return;
    }
    if (I < Parts.size())
      if (auto C = Eval.composedCost(Parts[I])) {
        Costs[I] = C;
        return;
      }
    Costs[I] = Eval.cost(Cands[I]);
  });
  if (Skipped.load(std::memory_order_relaxed))
    noteDeadlineOnce();
  return Costs;
}

std::optional<Candidate> DPSearch::parseWisdomEntry(const PlanEntry &E,
                                                    std::int64_t N) {
  // Parse with a private engine: a stale entry must degrade to a cache miss,
  // not poison the caller's diagnostics with errors.
  Diagnostics ParseDiags;
  FormulaRef F = parseFormulaString(E.FormulaText, ParseDiags);
  if (!F || ParseDiags.hasErrors() || F->isPattern() || F->inSize() != N ||
      F->outSize() != N) {
    Diags.warning(SourceLoc(),
                  "wisdom entry for size " + std::to_string(N) +
                      " does not parse back to a size-" + std::to_string(N) +
                      " formula; ignoring it");
    return std::nullopt;
  }
  return Candidate{F, E.Cost};
}

std::optional<std::vector<Candidate>>
DPSearch::entriesFromWisdom(std::int64_t N) {
  if (!Wisdom)
    return std::nullopt;
  auto Cached = Wisdom->lookup(wisdomKey(N));
  if (!Cached)
    return std::nullopt;
  std::vector<Candidate> Out;
  for (const PlanEntry &E : *Cached) {
    auto C = parseWisdomEntry(E, N);
    if (!C)
      return std::nullopt; // One bad entry invalidates the whole list.
    Out.push_back(std::move(*C));
  }
  if (Out.empty())
    return std::nullopt;
  return Out;
}

void DPSearch::recordWisdom(std::int64_t N,
                            const std::vector<Candidate> &Entries) {
  if (!Wisdom || Entries.empty())
    return;
  // A deadline-truncated result set is best-effort, not the search's real
  // answer; persisting it would poison warm runs with partial winners.
  if (DeadlineNoted || Opts.Deadline.expired())
    return;
  std::vector<PlanEntry> Out;
  Out.reserve(Entries.size());
  for (const Candidate &C : Entries)
    Out.push_back({C.Formula->print(), C.Cost});
  Wisdom->insert(wisdomKey(N), std::move(Out));
}

std::optional<Candidate> DPSearch::searchSmallOne(std::int64_t N) {
  auto Hit = SmallBest.find(N);
  if (Hit != SmallBest.end()) {
    telemetry::SearchDpHits.add();
    return Hit->second;
  }

  if (auto Cached = entriesFromWisdom(N)) {
    SmallBest[N] = Cached->front();
    return Cached->front();
  }

  std::vector<FormulaRef> Cands;
  if (N == 2) {
    Cands.push_back(makeDFT(2));
  } else {
    // All Equation-10 factorizations with the DP winners as leaves.
    for (const auto &Comp : gen::factorCompositions(N)) {
      if (Comp.size() < 2)
        continue;
      std::vector<std::pair<std::int64_t, FormulaRef>> Factors;
      bool Ok = true;
      for (std::int64_t Ni : Comp) {
        auto Sub = searchSmallOne(Ni);
        if (!Sub) {
          Ok = false;
          break;
        }
        Factors.push_back({Ni, Sub->Formula});
      }
      if (Ok)
        Cands.push_back(gen::ruleEq10(Factors));
    }
    // The DFT by definition is also a legal (slow) candidate for tiny
    // sizes, and the only one for primes (this makes mixed-radix sizes like
    // 12 = 3*4 searchable: factorCompositions handles any composite).
    if (N <= 4 || Cands.empty())
      Cands.push_back(makeDFT(N));
  }

  // Cost every candidate (in parallel when configured), then pick the
  // winner with a first-minimum scan — identical to the serial loop's
  // choice for any thread count.
  auto Costs = costAll(Cands);
  std::optional<Candidate> Best;
  for (size_t I = 0; I != Cands.size(); ++I) {
    if (!Costs[I])
      continue;
    if (!Best || *Costs[I] < Best->Cost)
      Best = Candidate{Cands[I], *Costs[I]};
  }
  if (!Best) {
    Diags.error(SourceLoc(), "search found no viable formula for size " +
                                 std::to_string(N));
    return std::nullopt;
  }
  SmallBest[N] = *Best;
  recordWisdom(N, {*Best});
  return Best;
}

std::map<std::int64_t, Candidate> DPSearch::searchSmall(std::int64_t MaxN) {
  assert(MaxN >= 2 && (MaxN & (MaxN - 1)) == 0 && MaxN <= Opts.MaxLeaf &&
         "small search covers power-of-two sizes up to MaxLeaf");
  std::map<std::int64_t, Candidate> Out;
  for (std::int64_t N = 2; N <= MaxN; N *= 2) {
    auto Best = searchSmallOne(N);
    if (Best)
      Out[N] = *Best;
  }
  return Out;
}

const std::vector<Candidate> &DPSearch::largeEntries(std::int64_t N) {
  auto Hit = LargeBest.find(N);
  if (Hit != LargeBest.end()) {
    telemetry::SearchDpHits.add();
    return Hit->second;
  }

  std::vector<Candidate> Entries;
  if (N <= Opts.MaxLeaf) {
    if (auto Small = searchSmallOne(N))
      Entries.push_back(*Small);
  } else if (auto Cached = entriesFromWisdom(N)) {
    Entries = std::move(*Cached);
  } else {
    // Right-most binary factorization: F_N = (F_r (x) I_s) T (I_r (x) F_s)
    // L with r <= MaxLeaf a straight-line module and s factored further.
    // Building the candidate set first (recursing into sub-sizes) and
    // costing it as one batch keeps the recursion serial while the
    // expensive evaluations fan out through parallelFor. A cost model that
    // composes costs each candidate from its children's costs instead, so
    // only leaves and the caller's winner are ever lowered.
    std::vector<FormulaRef> Cands;
    std::vector<CooleyTukeyParts> Parts;
    for (std::int64_t R = 2; R <= Opts.MaxLeaf && R * 2 <= N; R *= 2) {
      // Out of budget: stop widening the candidate set, but only once at
      // least one factorization exists — the search must still return a
      // formula, just not the best one.
      if (!Cands.empty() && Opts.Deadline.expired()) {
        noteDeadlineOnce();
        break;
      }
      std::int64_t S = N / R;
      auto FR = searchSmallOne(R);
      if (!FR)
        continue;
      for (const Candidate &FS : largeEntries(S)) {
        Cands.push_back(gen::ruleCooleyTukeyDIT(R, S, FR->Formula, FS.Formula));
        Parts.push_back({R, S, FR->Cost, FS.Cost});
      }
    }
    auto Costs = costAll(Cands, Parts);
    std::vector<Candidate> Costed;
    for (size_t I = 0; I != Cands.size(); ++I)
      if (Costs[I])
        Costed.push_back({Cands[I], *Costs[I]});
    // stable_sort: candidates with equal costs keep construction order, so
    // the kept set is identical for every thread count.
    std::stable_sort(Costed.begin(), Costed.end(),
                     [](const Candidate &A, const Candidate &B) {
                       return A.Cost < B.Cost;
                     });
    if (Costed.size() > static_cast<size_t>(Opts.KeepBest))
      Costed.resize(Opts.KeepBest);
    Entries = std::move(Costed);
    recordWisdom(N, Entries);
  }

  if (Entries.empty())
    Diags.error(SourceLoc(), "search found no viable formula for size " +
                                 std::to_string(N));
  return LargeBest.emplace(N, std::move(Entries)).first->second;
}

std::vector<Candidate> DPSearch::searchLarge(std::int64_t N) {
  assert(N >= 2 && (N & (N - 1)) == 0 && "size must be a power of two");
  return largeEntries(N);
}

std::optional<Candidate> DPSearch::best(std::int64_t N) {
  if (N <= Opts.MaxLeaf)
    return searchSmallOne(N);
  const auto &Entries = largeEntries(N);
  if (Entries.empty())
    return std::nullopt;
  return Entries.front();
}
