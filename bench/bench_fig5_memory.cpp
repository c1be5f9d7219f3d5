//===- bench/bench_fig5_memory.cpp - Figure 5 ----------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 5: memory consumption of large-size FFTs, N = 2^7 .. 2^20. Three
/// series, as in the paper: the SPL-generated loop code (temporaries +
/// twiddle tables + text estimate), the baseline with a measured plan
/// (winner + planner peak: every candidate coexists while planning), and
/// the baseline with an estimated plan (winner only). The paper's
/// observation — "FFTW estimate" needs about as much memory as the SPL
/// code, measuring needs more — is the shape to look for.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "baseline/Planner.h"
#include "perf/MemoryModel.h"

#include <cstdio>

using namespace spl;
using namespace spl::bench;

int main() {
  printPreamble("Figure 5: memory consumption of large-size FFTs",
                "Figure 5 (MB to run each code, N = 2^7..2^20)");
  int MaxLg = static_cast<int>(envInt("SPL_MAXLG", 20));

  Diagnostics Diags;
  auto Eval = makeEvaluator(Diags, /*UnrollThreshold=*/64);
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 64;
  SOpts.KeepBest = 3;
  search::DPSearch Search(*Eval, Diags, SOpts);
  Search.searchSmall(64);

  std::printf("%10s  %12s  %12s  %12s\n", "N", "SPL", "FFTWsub",
              "FFTWsub-est");
  std::printf("%10s  %12s  %12s  %12s\n", "", "(MB)", "(MB, plan+run)",
              "(MB)");

  const double MB = 1024.0 * 1024.0;
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
    perf::MemoryUsage SPL = perf::accountProgram(*Compiled);

    auto Measured = baseline::plan(N, baseline::PlanMode::Measure);
    auto Estimated = baseline::plan(N, baseline::PlanMode::Estimate);
    double MeasBytes = static_cast<double>(Measured.PlannerPeakBytes);
    double EstBytes = static_cast<double>(Estimated.Best->memoryBytes());

    std::printf("%10lld  %12.3f  %12.3f  %12.3f\n",
                static_cast<long long>(N), SPL.total() / MB, MeasBytes / MB,
                EstBytes / MB);
  }

  std::puts("\npaper's shape: SPL's memory tracks the estimate-mode "
            "baseline;\nmeasured planning needs noticeably more while it "
            "times every candidate.");
  return 0;
}
