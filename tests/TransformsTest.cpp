//===- tests/TransformsTest.cpp - Transform registry tests --------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the transform registry (src/transforms) and the transform
/// definitions behind it: catalog lookups and datatype policies, the dense
/// oracle matrices (dct3 as the dct2 transpose, rdft's halfcomplex rows),
/// rule-vs-matrix parity for every recursive generator rule, the
/// Kronecker composition of N-D oracles, and the factorization every rdft
/// is built with: the real split matrix S_N after F_{N/2}, proved densely,
/// through the compiled (S n) on every tier, and through the planner's and
/// the registry's formulas, with rdft wisdom recorded by earlier versions
/// still planning correctly.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/VectorISA.h"
#include "gen/Rules.h"
#include "ir/Builder.h"
#include "ir/Transforms.h"
#include "perf/KernelRunner.h"
#include "runtime/Planner.h"
#include "search/DPSearch.h"
#include "search/Evaluator.h"
#include "support/FaultInjection.h"
#include "transforms/Registry.h"
#include "vm/Executor.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>

using namespace spl;

namespace {

TEST(Registry, CatalogLookupsAndNames) {
  for (const char *Name : {"fft", "wht", "rdft", "dct2", "dct3", "dct4"}) {
    const transforms::TransformInfo *TI = transforms::lookup(Name);
    ASSERT_NE(TI, nullptr) << Name;
    EXPECT_STREQ(TI->Name, Name);
    // The diagnostics string must mention every registered transform.
    EXPECT_NE(transforms::supportedNames().find(Name), std::string::npos);
  }
  EXPECT_EQ(transforms::lookup("dct5"), nullptr);
  EXPECT_EQ(transforms::lookup(""), nullptr);
  EXPECT_EQ(transforms::all().size(), 6u);
}

TEST(Registry, DatatypePolicies) {
  const auto *Fft = transforms::lookup("fft");
  const auto *Wht = transforms::lookup("wht");
  const auto *Rdft = transforms::lookup("rdft");
  const auto *Dct2 = transforms::lookup("dct2");
  ASSERT_TRUE(Fft && Wht && Rdft && Dct2);

  EXPECT_TRUE(transforms::allowsDatatype(*Fft, "complex"));
  EXPECT_FALSE(transforms::allowsDatatype(*Fft, "real"));
  // wht kernels compile either way (the pre-registry behavior).
  EXPECT_TRUE(transforms::allowsDatatype(*Wht, "real"));
  EXPECT_TRUE(transforms::allowsDatatype(*Wht, "complex"));
  // rdft is real-in by definition; the complex F_{N/2} it searches
  // (KernelDatatype) is an internal detail, not a spec-level option.
  EXPECT_TRUE(transforms::allowsDatatype(*Rdft, "real"));
  EXPECT_FALSE(transforms::allowsDatatype(*Rdft, "complex"));
  EXPECT_STREQ(Rdft->NaturalDatatype, "real");
  EXPECT_STREQ(Rdft->KernelDatatype, "complex");
  EXPECT_FALSE(transforms::allowsDatatype(*Dct2, "complex"));
  // Never match a substring or an empty token.
  EXPECT_FALSE(transforms::allowsDatatype(*Wht, "re"));
  EXPECT_FALSE(transforms::allowsDatatype(*Wht, ""));
}

TEST(Registry, SizeRules) {
  const auto *Fft = transforms::lookup("fft");
  const auto *Rdft = transforms::lookup("rdft");
  ASSERT_TRUE(Fft && Rdft);
  EXPECT_TRUE(Fft->ValidSize(64, 16));
  EXPECT_TRUE(Fft->ValidSize(6, 16)); // Dense leaf below the bound.
  EXPECT_FALSE(Fft->ValidSize(48, 16));
  EXPECT_FALSE(Fft->ValidSize(1, 16));
  EXPECT_TRUE(Rdft->ValidSize(64, 16));
  EXPECT_FALSE(Rdft->ValidSize(6, 16)); // Strict powers of two.
  EXPECT_FALSE(Rdft->SupportsND);       // Halfcomplex packing is 1-D.
  EXPECT_TRUE(Fft->SupportsND);
}

TEST(Transforms, Dct3IsDct2Transpose) {
  for (std::int64_t N : {2, 4, 8, 16}) {
    Matrix A = dct3Matrix(N), B = dct2Matrix(N);
    double Max = 0;
    for (size_t R = 0; R != A.rows(); ++R)
      for (size_t C = 0; C != A.cols(); ++C)
        Max = std::max(Max, std::abs(A.at(R, C) - B.at(C, R)));
    EXPECT_EQ(Max, 0.0) << "N=" << N;
  }
}

TEST(Transforms, RdftMatrixHasHalfcomplexRows) {
  const std::int64_t N = 8;
  Matrix M = rdftMatrix(N);
  // Row 0 is the DC sum; row N/2 alternates +-1 (the Nyquist bin); rows
  // above N/2 carry the imaginary parts Im Y_k = -sin terms.
  for (std::int64_t J = 0; J != N; ++J) {
    EXPECT_EQ(M.at(0, J), Cplx(1, 0));
    EXPECT_NEAR(M.at(N / 2, J).real(), J % 2 ? -1.0 : 1.0, 1e-12);
    EXPECT_EQ(M.at(N / 2, J).imag(), 0.0);
  }
  for (std::int64_t K = 1; K != N / 2; ++K)
    for (std::int64_t J = 0; J != N; ++J) {
      EXPECT_NEAR(M.at(N - K, J).real(),
                  -std::sin(2 * M_PI * static_cast<double>(K * J) /
                            static_cast<double>(N)),
                  1e-12)
          << "K=" << K << " J=" << J;
      EXPECT_EQ(M.at(N - K, J).imag(), 0.0);
    }
}

TEST(Transforms, RecursiveRulesMatchDenseOracles) {
  // Every registry rule must expand to a formula whose dense semantics are
  // exactly the transform's oracle matrix. This is the contract that lets
  // the planner compile the rule instead of the O(N^2) matrix.
  for (std::int64_t N : {2, 4, 8, 16, 32}) {
    EXPECT_LT(gen::recursiveDCT2(N)->toMatrix().maxAbsDiff(dct2Matrix(N)),
              1e-12)
        << "dct2 N=" << N;
    EXPECT_LT(gen::recursiveDCT3(N)->toMatrix().maxAbsDiff(dct3Matrix(N)),
              1e-12)
        << "dct3 N=" << N;
    EXPECT_LT(gen::recursiveDCT4(N)->toMatrix().maxAbsDiff(dct4Matrix(N)),
              1e-12)
        << "dct4 N=" << N;
    EXPECT_LT(gen::recursiveRDFT(N)->toMatrix().maxAbsDiff(rdftMatrix(N)),
              1e-12)
        << "rdft N=" << N;
  }
}

TEST(Transforms, RdftRuleEntrywiseReal) {
  // The rule's matrix is entrywise real: the split's conjugate-pair
  // combinations cancel every imaginary part exactly, so a real-typed
  // kernel computes the whole transform.
  Matrix M = gen::recursiveRDFT(16)->toMatrix();
  double MaxImag = 0;
  for (size_t R = 0; R != M.rows(); ++R)
    for (size_t C = 0; C != M.cols(); ++C)
      MaxImag = std::max(MaxImag, std::abs(M.at(R, C).imag()));
  EXPECT_LT(MaxImag, 1e-12);
}

/// realify(A): the 2n x 2n real matrix acting on n complex points stored
/// as interleaved (re, im) doubles the way A acts on the points.
Matrix realify(const Matrix &A) {
  Matrix R(2 * A.rows(), 2 * A.cols());
  for (size_t I = 0; I != A.rows(); ++I)
    for (size_t J = 0; J != A.cols(); ++J) {
      const Cplx V = A.at(I, J);
      R.at(2 * I, 2 * J) = V.real();
      R.at(2 * I, 2 * J + 1) = -V.imag();
      R.at(2 * I + 1, 2 * J) = V.imag();
      R.at(2 * I + 1, 2 * J + 1) = V.real();
    }
  return R;
}

/// The textbook split, one bin at a time in complex arithmetic: Z is the
/// F_{N/2} output as interleaved doubles; returns the halfcomplex X.
std::vector<double> referenceSplit(const std::vector<double> &Z,
                                   std::int64_t N) {
  const std::int64_t H = N / 2;
  auto Pt = [&](std::int64_t K) {
    K %= H;
    return Cplx(Z[2 * K], Z[2 * K + 1]);
  };
  std::vector<double> Y(static_cast<size_t>(N));
  for (std::int64_t K = 0; K <= H; ++K) {
    const Cplx E = (Pt(K) + std::conj(Pt(H - K))) / 2.0;
    const Cplx O = (Pt(K) - std::conj(Pt(H - K))) / Cplx(0, 2);
    const Cplx X =
        E + std::polar(1.0, -2 * M_PI * double(K) / double(N)) * O;
    Y[K] = X.real();
    if (K != 0 && K != H)
      Y[N - K] = X.imag();
  }
  return Y;
}

/// S_N, the dense real split matrix: column j is the split of unit vector j.
Matrix splitMatrix(std::int64_t N) {
  Matrix S(N, N);
  for (std::int64_t J = 0; J != N; ++J) {
    std::vector<double> E(static_cast<size_t>(N), 0.0);
    E[J] = 1;
    const std::vector<double> Col = referenceSplit(E, N);
    for (std::int64_t K = 0; K != N; ++K)
      S.at(K, J) = Col[K];
  }
  return S;
}

TEST(Transforms, RdftIsTheRealSplitAfterHalfSizeDft) {
  // rdft_N = S_N * realify(F_{N/2}): F_{N/2} runs on x read as N/2
  // interleaved points, and S_N is one real, sparse factor.
  for (std::int64_t N = 2; N <= 256; N *= 2) {
    const Matrix Product = splitMatrix(N).mul(realify(dftMatrix(N / 2)));
    EXPECT_LT(Product.maxAbsDiff(rdftMatrix(N)), 1e-12) << "N=" << N;
  }
}

TEST(Transforms, CompiledSplitMatchesTheSplitMatrix) {
  // The built-in (S n) template, compiled as a real program and fed unit
  // vectors, writes the columns of splitMatrix(N): on the VM, as a native
  // scalar kernel, and as a native vector kernel (lanes packed slot-major)
  // when the host has a SIMD ISA.
  const bool Native =
      perf::NativeModule::available() && !fault::armed();
  std::vector<codegen::CodegenVariant> Variants;
  if (Native) {
    Variants.push_back(codegen::CodegenVariant::Scalar);
    if (codegen::vectorBackendAvailable())
      Variants.push_back(codegen::CodegenVariant::Vector);
  }
  for (std::int64_t N = 2; N <= 256; N *= 2) {
    Diagnostics Diags;
    driver::Compiler Compiler(Diags);
    DirectiveState Dirs;
    Dirs.SubName = "split" + std::to_string(N);
    Dirs.Datatype = "real";
    driver::CompilerOptions CO;
    CO.UnrollThreshold = 16;
    CO.EmitCode = false;
    auto Unit = Compiler.compileFormula(makeSplit(N), Dirs, CO);
    ASSERT_TRUE(Unit) << Diags.dump();
    const Matrix Want = splitMatrix(N);
    EXPECT_LT(Unit->Formula->toMatrix().maxAbsDiff(Want), 1e-12) << "N=" << N;

    vm::Executor VM(Unit->Final);
    double VMDiff = 0;
    for (std::int64_t J = 0; J != N; ++J) {
      std::vector<double> X(static_cast<size_t>(N), 0.0), Y(X.size());
      X[J] = 1;
      VM.runReal(X.data(), Y.data());
      for (std::int64_t K = 0; K != N; ++K)
        VMDiff = std::max(VMDiff, std::abs(Y[K] - Want.at(K, J).real()));
    }
    EXPECT_LT(VMDiff, 1e-12) << "vm N=" << N;

    for (codegen::CodegenVariant V : Variants) {
      perf::KernelBuildOptions BO;
      BO.Variant = V;
      perf::KernelError Err;
      auto K = perf::CompiledKernel::create(Unit->Final, &Err, BO);
      ASSERT_TRUE(K) << Err.str();
      const std::int64_t M = K->lanes();
      double Diff = 0;
      for (std::int64_t J0 = 0; J0 < N; J0 += M) {
        // Lane j carries unit vector J0 + j (zero past the last column).
        std::vector<double> X(static_cast<size_t>(N * M), 0.0), Y(X.size());
        for (std::int64_t J = 0; J != M && J0 + J < N; ++J)
          X[(J0 + J) * M + J] = 1;
        K->run(Y.data(), X.data());
        for (std::int64_t J = 0; J != M && J0 + J < N; ++J)
          for (std::int64_t R = 0; R != N; ++R)
            Diff = std::max(
                Diff, std::abs(Y[R * M + J] - Want.at(R, J0 + J).real()));
      }
      EXPECT_LT(Diff, 1e-12) << codegen::variantName(V) << " N=" << N;
    }
  }
}

TEST(Transforms, PlannedRdftFormulaIsTheRdftMatrix) {
  // The planner's winner and the registry rule are both S_N realify(F_{N/2})
  // from gen::ruleRDFT, and each denotes the rdft matrix: the formula a
  // plan compiles is checked against the specification itself.
  runtime::PlannerOptions Opts;
  Opts.UseWisdom = false;
  Diagnostics Diags;
  runtime::Planner Planner(Diags, Opts);
  const transforms::TransformInfo &TI = *transforms::lookup("rdft");
  for (std::int64_t N = 2; N <= 256; N *= 2) {
    runtime::PlanSpec Spec;
    Spec.Transform = "rdft";
    Spec.Size = N;
    auto Chosen = Planner.choose(Spec, support::Deadline());
    ASSERT_TRUE(Chosen) << Diags.dump();
    const Matrix Want = rdftMatrix(N);
    EXPECT_LT(Chosen->Formula->toMatrix().maxAbsDiff(Want), 1e-12)
        << "planned rdft " << N << ": " << Chosen->Formula->print();
    EXPECT_LT(TI.Rule(N)->toMatrix().maxAbsDiff(Want), 1e-12)
        << "rule rdft " << N;
  }
}

TEST(Transforms, RdftWisdomOfFullSizeDftsStillPlans) {
  SPL_SKIP_IF_FAULTS_ARMED();
  // Wisdom files from before the split record, under the rdft tag, the
  // best F_n for each n that rdft n searched. Those entries keep their
  // meaning: rdft 2n now plans on the F_n entry. Seed a file with chosen
  // (non-default) F_32 and F_64 winners and check rdft 64 and 128 wrap
  // exactly them as S_N realify(F_{N/2}) and stay correct.
  const std::string Path = "/tmp/spl-rdft-wisdom-compat-" +
                           std::to_string(getpid()) + ".tmp";
  std::remove(Path.c_str());
  const std::string F16 =
      "(compose (tensor (F 2) (I 8)) (T 16 8) (tensor (I 2) (F 8)) (L 16 2))";
  const std::string F32 = "(compose (tensor (F 2) (I 16)) (T 32 16) "
                          "(tensor (I 2) " + F16 + ") (L 32 2))";
  const std::string F64 = "(compose (tensor (F 4) (I 16)) (T 64 16) "
                          "(tensor (I 4) (F 16)) (L 64 4))";
  runtime::PlannerOptions Opts;
  Opts.Evaluator = "opcount";
  Opts.WisdomPath = Path;
  runtime::PlanSpec Spec;
  Spec.Transform = "rdft";
  Spec.Want = runtime::Backend::VM;
  {
    // The key the planner's search uses for its halved size: the same
    // tag, leaf and keep-best shape an rdft plan of that full size wrote.
    Diagnostics Diags;
    driver::CompilerOptions CO;
    CO.UnrollThreshold = Spec.UnrollThreshold;
    search::OpCountEvaluator Eval(Diags, CO);
    Eval.setDatatype("complex");
    search::SearchOptions SO;
    SO.MaxLeaf = Spec.MaxLeaf;
    SO.Transform = "rdft";
    search::DPSearch Search(Eval, Diags, SO);
    search::PlanCache Wisdom(Diags);
    Wisdom.insert(Search.wisdomKey(32), {search::PlanEntry{F32, 1.0}});
    Wisdom.insert(Search.wisdomKey(64), {search::PlanEntry{F64, 1.0}});
    ASSERT_TRUE(Wisdom.save(Path)) << Diags.dump();
  }
  Diagnostics Diags;
  runtime::Planner Planner(Diags, Opts);
  for (const auto &[N, Half] : {std::pair<std::int64_t, std::string>{64, F32},
                                {128, F64}}) {
    Spec.Size = N;
    auto P = Planner.plan(Spec);
    ASSERT_TRUE(P) << Diags.dump();
    EXPECT_EQ(P->formulaText(), "(compose (S " + std::to_string(N) +
                                    ") (realify " + Half + "))")
        << "rdft " << N;
    const std::vector<double> X = test::randomRealVector(N, 7);
    std::vector<double> Y(static_cast<size_t>(N));
    P->execute(Y.data(), X.data());
    const Matrix M = rdftMatrix(N);
    double MaxDiff = 0;
    for (std::int64_t K = 0; K != N; ++K) {
      double Ref = 0;
      for (std::int64_t J = 0; J != N; ++J)
        Ref += M.at(K, J).real() * X[J];
      MaxDiff = std::max(MaxDiff, std::abs(Y[K] - Ref));
    }
    EXPECT_LT(MaxDiff, 1e-12) << "rdft " << N;
  }
  test::removeRecordFile(Path);
}

TEST(Registry, OracleMatrixKronsPerDimension) {
  const auto *Fft = transforms::lookup("fft");
  const auto *Dct2 = transforms::lookup("dct2");
  ASSERT_TRUE(Fft && Dct2);

  // One dimension is the plain oracle.
  EXPECT_EQ(transforms::oracleMatrix(*Fft, {8}).maxAbsDiff(dftMatrix(8)),
            0.0);
  // Two dimensions: row-major row-column transform = kron of the oracles.
  Matrix Want = dftMatrix(4).kron(dftMatrix(8));
  EXPECT_EQ(transforms::oracleMatrix(*Fft, {4, 8}).maxAbsDiff(Want), 0.0);
  // Mixed transform kinds never mix: dct2 krons dct2.
  Matrix D = dct2Matrix(4).kron(dct2Matrix(4));
  EXPECT_EQ(transforms::oracleMatrix(*Dct2, {4, 4}).maxAbsDiff(D), 0.0);
  // Three dimensions associate left-to-right.
  Matrix T = dftMatrix(2).kron(dftMatrix(4)).kron(dftMatrix(2));
  EXPECT_EQ(transforms::oracleMatrix(*Fft, {2, 4, 2}).maxAbsDiff(T), 0.0);
}

} // namespace
