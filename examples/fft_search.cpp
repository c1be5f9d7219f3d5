//===- examples/fft_search.cpp - Searching the FFT algorithm space ------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The SPIRAL loop in miniature: enumerate FFT factorizations, evaluate
/// each candidate through the compiler, run the dynamic-programming search
/// (keep-3 for large sizes, as in the paper's Section 4.2) and report the
/// winning formulas with their costs.
///
/// Demonstrates the two amortization mechanisms on top of the paper's
/// engine: persistent wisdom (a second run with a warm wisdom file performs
/// zero candidate evaluations for cached sizes) and the parallel candidate
/// evaluator.
///
///   fft_search [--wisdom file] [--no-wisdom] [--search-threads t]
///              (wisdom defaults to ./fft_search.wisdom to keep the demo
///               self-contained; point --wisdom at ~/.spl_wisdom to share)
///
//===----------------------------------------------------------------------===//

#include "perf/Metrics.h"
#include "search/DPSearch.h"
#include "search/PlanCache.h"
#include "support/Timer.h"
#include "vm/Executor.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace spl;

int main(int Argc, char **Argv) {
  std::string WisdomPath = "fft_search.wisdom";
  bool UseWisdom = true;
  int Threads = 1;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--wisdom" && I + 1 < Argc) {
      WisdomPath = Argv[++I];
    } else if (Arg == "--no-wisdom") {
      UseWisdom = false;
    } else if (Arg == "--search-threads" && I + 1 < Argc) {
      Threads = std::atoi(Argv[++I]);
    } else {
      std::fprintf(stderr,
                   "usage: fft_search [--wisdom file] [--no-wisdom] "
                   "[--search-threads t]\n");
      return 1;
    }
  }

  Diagnostics Diags;
  driver::CompilerOptions CompOpts;
  CompOpts.UnrollThreshold = 16;

  // Search by measured VM time (the portable measurement path); swap in
  // search::NativeTimeEvaluator to time natively compiled code instead.
  search::VMTimeEvaluator Eval(Diags, CompOpts, /*Repeats=*/2);

  search::PlanCache Wisdom(Diags);
  if (UseWisdom)
    Wisdom.load(WisdomPath);

  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  SOpts.KeepBest = 3;
  SOpts.Threads = Threads;
  search::DPSearch Search(Eval, Diags, SOpts, UseWisdom ? &Wisdom : nullptr);

  Timer Wall;
  std::puts("small sizes (exhaustive over Equation 10 factorizations):");
  auto Small = Search.searchSmall(16);
  for (const auto &[N, Cand] : Small) {
    std::printf("  F_%-3lld  %-60s  %.2f us\n", static_cast<long long>(N),
                Cand.Formula->print().substr(0, 60).c_str(),
                Cand.Cost * 1e6);
  }

  std::puts("\nlarge sizes (right-most binary Cooley-Tukey, keep-3):");
  for (std::int64_t N : {64, 256, 1024}) {
    auto Entries = Search.searchLarge(N);
    if (Entries.empty()) {
      std::fputs(Diags.dump().c_str(), stderr);
      return 1;
    }
    std::printf("  F_%lld: kept %zu candidates\n", static_cast<long long>(N),
                Entries.size());
    for (size_t I = 0; I != Entries.size(); ++I) {
      std::printf("    #%zu  %.2f us  (%.1f pseudo MFlops)\n", I + 1,
                  Entries[I].Cost * 1e6,
                  perf::pseudoMFlops(N, Entries[I].Cost));
    }
  }

  // Show the winner's code shape for N = 256.
  auto Best = Search.best(256);
  if (!Best)
    return 1;
  auto Compiled = Eval.compile(Best->Formula);
  if (!Compiled)
    return 1;
  std::printf("\nwinning F_256 formula:\n  %s\n",
              Best->Formula->print().c_str());
  std::printf("generated program: %zu instructions, %llu flops, "
              "%zu twiddle tables\n",
              Compiled->staticSize(),
              static_cast<unsigned long long>(
                  Compiled->dynamicOpCount()),
              Compiled->Tables.size());

  // Cache hit/miss/timing summary. A warm run reports zero candidate
  // evaluations: every size came straight out of the wisdom file.
  if (UseWisdom) {
    Wisdom.save(WisdomPath);
    Wisdom.reportSummary();
  }
  std::printf("\nsearch took %.2f s, %llu candidate evaluations, "
              "%d worker thread%s\n",
              Wall.seconds(),
              static_cast<unsigned long long>(Eval.evaluations()), Threads,
              Threads == 1 ? "" : "s");
  if (UseWisdom)
    std::printf("%s (%s)\n", Wisdom.summary().c_str(), WisdomPath.c_str());
  return 0;
}
