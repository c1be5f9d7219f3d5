//===- bench/bench_fig4_large_fft.cpp - Figure 4 -------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 4: performance of large-size FFTs, N = 2^7 .. 2^20, in pseudo
/// MFlops. Three series, as in the paper:
///   SPL            - loop code from the keep-3 right-most binary search
///                    (straight-line modules up to 64, Section 4.2),
///   FFTW(sub)      - the baseline library with a measured plan,
///   FFTW(sub) est. - the baseline library with an estimated plan.
/// Planning time is excluded from the measurement, as in the paper.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "baseline/Planner.h"

#include <cstdio>
#include <random>

using namespace spl;
using namespace spl::bench;

namespace {

double timePlan(baseline::Transform &T) {
  std::int64_t N = T.size();
  std::mt19937 Gen(23);
  std::uniform_real_distribution<double> Dist(-1, 1);
  std::vector<baseline::C> X(N), Y(N);
  for (auto &V : X)
    V = baseline::C(Dist(Gen), Dist(Gen));
  return timeBestOf([&] { T.run(X.data(), Y.data()); }, 2);
}

} // namespace

int main() {
  printPreamble("Figure 4: large-size FFT performance",
                "Figure 4 (SPL loop code vs FFTW-substitute, N = 2^7..2^20)");
  int MaxLg = static_cast<int>(envInt("SPL_MAXLG", 20));

  Diagnostics Diags;
  auto Eval = makeEvaluator(Diags, /*UnrollThreshold=*/64);
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 64;
  SOpts.KeepBest = 3;
  search::DPSearch Search(*Eval, Diags, SOpts);
  Search.searchSmall(64);

  std::printf("%10s  %10s  %12s  %12s  %12s\n", "N", "", "SPL",
              "FFTWsub", "FFTWsub-est");
  std::printf("%10s  %10s  %12s  %12s  %12s\n", "", "", "(MFlops)",
              "(MFlops)", "(MFlops)");

  for (int Lg = 7; Lg <= MaxLg; ++Lg) {
    std::int64_t N = std::int64_t(1) << Lg;

    auto Best = Search.best(N);
    if (!Best) {
      std::fputs(Diags.dump().c_str(), stderr);
      return 1;
    }
    auto Compiled = Eval->compile(Best->Formula);
    if (!Compiled)
      return 1;
    KernelTime SPL = timeFinal(*Compiled, /*Repeats=*/2);

    auto Measured = baseline::plan(N, baseline::PlanMode::Measure);
    auto Estimated = baseline::plan(N, baseline::PlanMode::Estimate);
    double TM = timePlan(*Measured.Best);
    double TE = timePlan(*Estimated.Best);

    std::printf("%10lld  %10s  %12.1f  %12.1f  %12.1f%s\n",
                static_cast<long long>(N),
                ("2^" + std::to_string(Lg)).c_str(),
                perf::pseudoMFlops(N, SPL.Seconds),
                perf::pseudoMFlops(N, TM), perf::pseudoMFlops(N, TE),
                SPL.Native ? "" : "  [VM]");
    std::fflush(stdout);
  }

  std::puts("\npaper's shape: the SPL series tracks the measured-plan "
            "baseline;\nestimated plans are equal or slower; performance "
            "drops where the\nworking set crosses the L1/L2 cache sizes "
            "(see bench_table1).");
  return 0;
}
