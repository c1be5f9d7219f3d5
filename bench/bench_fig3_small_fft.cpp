//===- bench/bench_fig3_small_fft.cpp - Figure 3 -------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 3: performance of small-size FFTs (N = 2..64) in pseudo MFlops
/// (5 N log2 N / t). The SPL side searches exhaustively over Equation-10
/// factorizations with fully unrolled straight-line code (Section 4.1); the
/// comparison side is the baseline library's straight-line codelets (the
/// stand-in for FFTW's codelets; see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "baseline/Codelets.h"

#include <cstdio>
#include <random>

using namespace spl;
using namespace spl::bench;

int main() {
  printPreamble("Figure 3: small-size FFT performance",
                "Figure 3 (SPL vs codelets, N = 2..64, pseudo MFlops)");

  Diagnostics Diags;
  auto Eval = makeEvaluator(Diags, /*UnrollThreshold=*/64);
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 64;
  search::DPSearch Search(*Eval, Diags, SOpts);
  auto Winners = Search.searchSmall(64);
  if (Winners.empty()) {
    std::fputs(Diags.dump().c_str(), stderr);
    return 1;
  }

  std::printf("%6s  %12s  %12s  %10s  %s\n", "N", "SPL", "codelet",
              "SPL/cdlt", "winning formula");
  std::printf("%6s  %12s  %12s\n", "", "(MFlops)", "(MFlops)");

  for (auto &[N, Cand] : Winners) {
    auto Compiled = Eval->compile(Cand.Formula);
    if (!Compiled) {
      std::fputs(Diags.dump().c_str(), stderr);
      return 1;
    }
    KernelTime SPL = timeFinal(*Compiled);

    // Time the baseline codelet on matching data.
    std::mt19937 Gen(17);
    std::uniform_real_distribution<double> Dist(-1, 1);
    std::vector<baseline::C> X(N), Y(N);
    for (auto &V : X)
      V = baseline::C(Dist(Gen), Dist(Gen));
    std::int64_t Size = N; // Structured binding members can't be captured.
    double CodeletSec = timeBestOf(
        [&, Size] { baseline::codelet(Size, X.data(), 1, Y.data()); }, 3);

    double SplMF = perf::pseudoMFlops(N, SPL.Seconds);
    double CdMF = perf::pseudoMFlops(N, CodeletSec);
    std::string Formula = Cand.Formula->print();
    if (Formula.size() > 40)
      Formula = Formula.substr(0, 37) + "...";
    std::printf("%6lld  %12.1f  %12.1f  %10.2f  %s%s\n",
                static_cast<long long>(N), SplMF, CdMF, SplMF / CdMF,
                Formula.c_str(), SPL.Native ? "" : "  [VM]");
  }

  std::puts("\npaper's shape: SPL-generated straight-line code is "
            "competitive with\nthe hand-arranged codelets across all small "
            "sizes.");
  return 0;
}
