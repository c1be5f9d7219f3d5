//===- bench/bench_fig6_accuracy.cpp - Figure 6 --------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 6: accuracy of the generated FFTs, N = 2^1 .. 2^18: the benchfft
/// relative-error metric (||y - y_ref|| / ||y_ref|| on random inputs,
/// long-double reference) of each size's search winner. Doubles carry
/// epsilon ~2.2e-16; a well-behaved FFT stays within a small multiple.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "perf/Accuracy.h"

#include <cstdio>

using namespace spl;
using namespace spl::bench;

int main() {
  printPreamble("Figure 6: accuracy of the FFT computation",
                "Figure 6 (relative error vs size, benchfft metric)");
  int MaxLg = static_cast<int>(envInt("SPL_ACC_MAXLG", 18));

  Diagnostics Diags;
  auto Eval = makeEvaluator(Diags, /*UnrollThreshold=*/64);
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 64;
  SOpts.KeepBest = 3;
  search::DPSearch Search(*Eval, Diags, SOpts);

  std::printf("%10s  %14s  %14s\n", "N", "rel. error", "x eps(2.2e-16)");

  for (int Lg = 1; Lg <= MaxLg; ++Lg) {
    std::int64_t N = std::int64_t(1) << Lg;
    auto Best = Search.best(N);
    if (!Best) {
      std::fputs(Diags.dump().c_str(), stderr);
      return 1;
    }
    auto Compiled = Eval->compile(Best->Formula);
    if (!Compiled)
      return 1;

    // Run the generated code through the VM: bit-identical arithmetic to
    // the emitted C (same operation order), no compiler reassociation.
    auto VM = std::make_shared<vm::Executor>(*Compiled);
    auto Fn = [VM](const std::vector<Cplx> &In, std::vector<Cplx> &Out) {
      std::vector<double> XR(In.size() * 2), YR;
      for (size_t I = 0; I != In.size(); ++I) {
        XR[2 * I] = In[I].real();
        XR[2 * I + 1] = In[I].imag();
      }
      VM->runReal(XR, YR);
      Out.resize(YR.size() / 2);
      for (size_t I = 0; I != Out.size(); ++I)
        Out[I] = Cplx(YR[2 * I], YR[2 * I + 1]);
    };

    int Trials = Lg <= 12 ? 4 : 2;
    double Err = perf::relativeError(N, Fn, Trials);
    std::printf("%10lld  %14.3e  %14.1f\n", static_cast<long long>(N), Err,
                Err / 2.220446049250313e-16);
    std::fflush(stdout);
  }

  std::puts("\npaper's shape: the relative error grows very slowly with "
            "size\n(O(sqrt(log N)) for Cooley-Tukey) and stays near machine "
            "precision.");
  return 0;
}
