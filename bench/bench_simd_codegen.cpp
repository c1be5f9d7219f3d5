//===- bench/bench_simd_codegen.cpp - Scalar vs SIMD codegen -------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vectorization payoff: the same searched FFT formula emitted as
/// scalar C and as SIMD C for the host ISA (the paper's Section-5
/// A (x) I_m wrapper at instruction level, docs/VECTORIZATION.md),
/// timed per transform. The vector kernel computes laneCount(ISA) transform
/// columns per call, so its per-transform time is the per-call time divided
/// by the lane count.
///
/// Acceptance gate: on a SIMD-capable host the best size must show at
/// least a 1.5x pseudo-MFlops advantage for the vector backend; on a
/// scalar-only host the harness logs the skip and exits green.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "codegen/VectorISA.h"

#include <cstdio>

using namespace spl;
using namespace spl::bench;

int main() {
  printPreamble("SIMD codegen: scalar vs vector emitter, per transform",
                "Section 5 vectorization (A (x) I_m as one lane group)");
  JsonReport Report("simd_codegen");
  if (!nativeAllowed()) {
    std::puts("no C compiler available; skipping (gate trivially green)");
    Report.boolean("skipped", true);
    Report.write();
    return 0;
  }
  if (!codegen::vectorBackendAvailable()) {
    std::printf("hardware ISA probe: %s; no SIMD on this host, skipping "
                "(gate trivially green)\n",
                codegen::isaName(codegen::hardwareISA()));
    Report.boolean("skipped", true);
    Report.write();
    return 0;
  }

  codegen::VectorISA ISA = codegen::detectISA();
  std::printf("vector ISA: %s (%d lanes)\n\n", codegen::isaName(ISA),
              codegen::laneCount(ISA));

  Diagnostics Diags;
  auto Eval = makeEvaluator(Diags, 64);
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 64;
  search::DPSearch Search(*Eval, Diags, SOpts);

  std::printf("%10s  %14s  %14s  %10s\n", "N", "scalar MFlops",
              "vector MFlops", "vec/scalar");
  double BestSpeedup = 0;
  for (int Lg : {4, 5, 6, 7, 8}) {
    std::int64_t N = std::int64_t(1) << Lg;
    auto Best = Search.best(N);
    if (!Best) {
      std::fputs(Diags.dump().c_str(), stderr);
      return 1;
    }
    auto Compiled = Eval->compile(Best->Formula);
    if (!Compiled)
      return 1;

    perf::KernelError Err;
    perf::KernelBuildOptions Scalar;
    auto SK = perf::CompiledKernel::create(Compiled->Final, &Err, Scalar);
    if (!SK) {
      std::fprintf(stderr, "scalar build failed: %s\n", Err.str().c_str());
      return 1;
    }
    perf::KernelBuildOptions Vector;
    Vector.Variant = codegen::CodegenVariant::Vector;
    Vector.ISA = ISA;
    auto VK = perf::CompiledKernel::create(Compiled->Final, &Err, Vector);
    if (!VK) {
      std::fprintf(stderr, "vector build failed: %s\n", Err.str().c_str());
      return 1;
    }

    double ScalarSec = SK->time(5);
    double VectorSec = VK->time(5) / VK->lanes();
    double Speedup = ScalarSec / VectorSec;
    BestSpeedup = std::max(BestSpeedup, Speedup);
    std::printf("%10lld  %14.1f  %14.1f  %10.2f\n",
                static_cast<long long>(N),
                perf::pseudoMFlops(N, ScalarSec),
                perf::pseudoMFlops(N, VectorSec), Speedup);
    std::fflush(stdout);
    const std::string Suffix = "_n" + std::to_string(N);
    Report.num("scalar_mflops" + Suffix, perf::pseudoMFlops(N, ScalarSec));
    Report.num("vector_mflops" + Suffix, perf::pseudoMFlops(N, VectorSec));
    Report.num("speedup" + Suffix, Speedup);
  }

  std::printf("\nbest vector-over-scalar speedup: %.2fx (gate: >= 1.50x)\n",
              BestSpeedup);
  Report.boolean("skipped", false);
  Report.num("best_speedup", BestSpeedup);
  Report.boolean("gate_speedup_1p5x", BestSpeedup >= 1.5);
  Report.write();
  if (BestSpeedup < 1.5) {
    std::puts("GATE FAILED: the vector backend must beat scalar codegen by "
              ">= 1.5x at some size on a SIMD host");
    return 1;
  }
  std::puts("GATE OK");
  return 0;
}
