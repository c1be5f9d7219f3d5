//===- tests/CorpusTest.cpp - .spl file corpus tests -------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Compiles every .spl program shipped in examples/spl/ through the full
/// pipeline and validates each against its expected semantics in the VM.
/// The corpus path comes from the SPL_CORPUS_DIR compile definition.
///
/// The golden emission test renders every corpus unit (plus one searched
/// FFT) as C under each emitter configuration and compares the text byte
/// for byte with tests/golden/<unit>.<config>.c. The C text is the kernel
/// cache key, so any change here changes which kernels get rebuilt. On a
/// mismatch the actual text is written under the build tree and its path
/// printed; review the diff and copy the file over the golden to accept it.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/CEmitter.h"
#include "driver/Compiler.h"
#include "ir/Transforms.h"
#include "search/DPSearch.h"
#include "vm/Executor.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

using namespace spl;
using namespace spl::test;

namespace {

std::string corpusFile(const std::string &Name) {
#ifdef SPL_CORPUS_DIR
  std::string Path = std::string(SPL_CORPUS_DIR) + "/" + Name;
#else
  std::string Path = "examples/spl/" + Name;
#endif
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "missing corpus file " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

std::vector<driver::CompiledUnit> compileCorpus(const std::string &Name) {
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 16;
  auto Units = C.compileSource(corpusFile(Name), Opts);
  EXPECT_TRUE(Units) << Diags.dump();
  return Units ? std::move(*Units) : std::vector<driver::CompiledUnit>();
}

/// Runs a lowered-complex unit against a reference matrix.
void checkComplexUnit(const driver::CompiledUnit &Unit, const Matrix &Want) {
  vm::Executor VM(Unit.Final);
  std::vector<Cplx> X = randomVector(Want.cols());
  std::vector<double> XR(2 * X.size()), YR;
  for (size_t I = 0; I != X.size(); ++I) {
    XR[2 * I] = X[I].real();
    XR[2 * I + 1] = X[I].imag();
  }
  VM.runReal(XR, YR);
  auto Ref = Want.apply(X);
  for (size_t I = 0; I != Ref.size(); ++I)
    EXPECT_LT(std::abs(Cplx(YR[2 * I], YR[2 * I + 1]) - Ref[I]), 1e-9);
}

TEST(Corpus, Fft16) {
  auto Units = compileCorpus("fft16.spl");
  ASSERT_EQ(Units.size(), 1u);
  EXPECT_EQ(Units[0].SubName, "fft16");
  checkComplexUnit(Units[0], dftMatrix(16));
}

TEST(Corpus, I64F2MatchesPaperShape) {
  auto Units = compileCorpus("i64f2.spl");
  ASSERT_EQ(Units.size(), 1u);
  EXPECT_EQ(Units[0].Language, "fortran");
  EXPECT_NE(Units[0].Code.find("subroutine I64F2"), std::string::npos);
  // Semantics: (I 32) (x) (I 2) (x) (F 2) on real data.
  vm::Executor VM(Units[0].Final);
  std::vector<double> X = randomRealVector(128), Y;
  VM.runReal(X, Y);
  for (int I = 0; I < 128; I += 2) {
    EXPECT_NEAR(Y[I], X[I] + X[I + 1], 1e-12);
    EXPECT_NEAR(Y[I + 1], X[I] - X[I + 1], 1e-12);
  }
}

TEST(Corpus, Wht16) {
  auto Units = compileCorpus("wht16.spl");
  ASSERT_EQ(Units.size(), 1u);
  vm::Executor VM(Units[0].Final);
  std::vector<double> X = randomRealVector(16), Y;
  VM.runReal(X, Y);
  Matrix W = whtMatrix(16);
  std::vector<Cplx> XC(16);
  for (int I = 0; I < 16; ++I)
    XC[I] = Cplx(X[I], 0);
  auto Ref = W.apply(XC);
  for (int I = 0; I < 16; ++I)
    EXPECT_NEAR(Y[I], Ref[I].real(), 1e-10);
}

TEST(Corpus, HaarUserTemplate) {
  auto Units = compileCorpus("haar.spl");
  ASSERT_EQ(Units.size(), 1u);
  vm::Executor VM(Units[0].Final);
  std::vector<double> X = {1, 3, 2, 6, 5, 5, 0, 8}, Y;
  VM.runReal(X, Y);
  // After (L 8 2): first half = sums, second half = differences.
  double Sums[] = {4, 8, 10, 8}, Diffs[] = {-2, -4, 0, -8};
  for (int I = 0; I < 4; ++I) {
    EXPECT_NEAR(Y[I], Sums[I], 1e-12);
    EXPECT_NEAR(Y[4 + I], Diffs[I], 1e-12);
  }
}

/// One emitter configuration of the golden test.
struct GoldenConfig {
  const char *Name;
  void (*Set)(codegen::CEmitOptions &);
};

/// Explicit ISAs only (never detectISA()), so the goldens are
/// host-independent and hold under SPL_VECTOR_ISA=scalar.
const GoldenConfig kGoldenConfigs[] = {
    {"scalar", [](codegen::CEmitOptions &) {}},
    {"stride", [](codegen::CEmitOptions &O) { O.StrideParams = true; }},
    {"vec2", [](codegen::CEmitOptions &O) { O.VectorizeCount = 2; }},
    {"runtime",
     [](codegen::CEmitOptions &O) {
       O.ExternalTables = true;
       O.ThreadSafe = true;
     }},
    {"avx2-runtime",
     [](codegen::CEmitOptions &O) {
       O.ISA = codegen::VectorISA::AVX2;
       O.ExternalTables = true;
       O.ThreadSafe = true;
     }},
    {"neon",
     [](codegen::CEmitOptions &O) { O.ISA = codegen::VectorISA::NEON; }},
};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return std::string();
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Compares \p P rendered under every configuration with its goldens.
void checkGoldens(const std::string &Unit, const icode::Program &P) {
  for (const GoldenConfig &Cfg : kGoldenConfigs) {
    const std::string File = Unit + "." + Cfg.Name + ".c";
    const std::string Want =
        readFile(std::string(SPL_GOLDEN_DIR) + "/" + File);
    codegen::CEmitOptions Opts;
    Cfg.Set(Opts);
    const std::string Got = codegen::emitC(P, Opts);
    if (Got == Want)
      continue;
    std::filesystem::create_directories(SPL_GOLDEN_ACTUAL_DIR);
    const std::string Actual = std::string(SPL_GOLDEN_ACTUAL_DIR) + "/" + File;
    std::ofstream(Actual, std::ios::binary) << Got;
    ADD_FAILURE() << File << ": emitted C differs from the golden"
                  << (Want.empty() ? " (golden missing)" : "")
                  << "; actual text written to " << Actual;
  }
}

TEST(Corpus, GoldenEmission) {
  for (const char *Name : {"fft16", "haar", "i64f2", "wht16"}) {
    auto Units = compileCorpus(std::string(Name) + ".spl");
    ASSERT_EQ(Units.size(), 1u) << Name;
    ASSERT_EQ(Units[0].Final.Type, icode::DataType::Real) << Name;
    checkGoldens(Name, Units[0].Final);
  }

  // One searched FFT: the op-count evaluator is deterministic, and a size
  // above the unroll threshold gives loop code with twiddle tables.
  Diagnostics Diags;
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 16;
  search::OpCountEvaluator Eval(Diags, Opts);
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  search::DPSearch Search(Eval, Diags, SOpts);
  auto Best = Search.best(32);
  ASSERT_TRUE(Best) << Diags.dump();
  auto Compiled = Eval.compile(Best->Formula);
  ASSERT_TRUE(Compiled) << Diags.dump();
  checkGoldens("fft32-searched", *Compiled);
}

} // namespace
