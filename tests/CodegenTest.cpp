//===- tests/CodegenTest.cpp - Code generation tests --------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the C and Fortran emitters and of the native compile-and-load
/// path: emitted C is compiled with the system compiler, loaded with dlopen
/// and checked against the dense-matrix oracle, closing the loop on the
/// whole compiler.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/CEmitter.h"
#include "codegen/FortranEmitter.h"
#include "codegen/VectorISA.h"
#include "driver/Compiler.h"
#include "ir/Builder.h"
#include "perf/NativeCompile.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace spl;
using namespace spl::test;

namespace {

driver::CompiledUnit compileOne(const std::string &Source,
                                const driver::CompilerOptions &Opts) {
  Diagnostics Diags;
  driver::Compiler C(Diags);
  auto Units = C.compileSource(Source, Opts);
  EXPECT_TRUE(Units) << Diags.dump();
  EXPECT_EQ(Units->size(), 1u);
  return Units->front();
}

/// Compiles a complex-datatype formula to C, builds it natively, runs it on
/// random data and compares against the dense oracle.
void checkNativeC(const std::string &Source, std::int64_t Threshold) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  SPL_SKIP_IF_FAULTS_ARMED();
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = Threshold;
  auto Unit = compileOne(Source, Opts);

  std::string Err;
  auto Mod = perf::NativeModule::compile(Unit.Code, Unit.SubName, &Err);
  ASSERT_TRUE(Mod) << Err << "\n" << Unit.Code;

  std::int64_t N = Unit.Final.InSize;
  std::vector<Cplx> X = randomVector(N);
  std::vector<double> XR(2 * N), YR(2 * Unit.Final.OutSize, 0.0);
  for (std::int64_t I = 0; I != N; ++I) {
    XR[2 * I] = X[I].real();
    XR[2 * I + 1] = X[I].imag();
  }
  Mod->fn()(YR.data(), XR.data());

  std::vector<Cplx> Want = Unit.Formula->toMatrix().apply(X);
  double Max = 0;
  for (size_t I = 0; I != Want.size(); ++I)
    Max = std::max(Max, std::abs(Cplx(YR[2 * I], YR[2 * I + 1]) - Want[I]));
  EXPECT_LT(Max, 1e-9) << Unit.Code;
}

TEST(CEmitter, EmitsCompilableUnrolledFFT) {
  checkNativeC("#subname fft8\n"
               "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) "
               "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) "
               "(L 4 2))) (L 8 2))",
               /*Threshold=*/64);
}

TEST(CEmitter, EmitsCompilableLoopCode) {
  checkNativeC("#subname fft16loop\n"
               "(compose (tensor (F 4) (I 4)) (T 16 4) (tensor (I 4) (F 4)) "
               "(L 16 4))",
               /*Threshold=*/4);
}

TEST(CEmitter, RealDatatypeWHT) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  SPL_SKIP_IF_FAULTS_ARMED();
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 64;
  auto Unit = compileOne("#datatype real\n#subname wht8\n"
                         "(tensor (WHT 2) (WHT 2) (WHT 2))",
                         Opts);
  std::string Err;
  auto Mod = perf::NativeModule::compile(Unit.Code, "wht8", &Err);
  ASSERT_TRUE(Mod) << Err;

  std::vector<double> X = randomRealVector(8), Y(8, 0.0);
  Mod->fn()(Y.data(), X.data());

  std::vector<Cplx> XC(8);
  for (int I = 0; I < 8; ++I)
    XC[I] = Cplx(X[I], 0);
  std::vector<Cplx> Want = Unit.Formula->toMatrix().apply(XC);
  for (int I = 0; I < 8; ++I)
    EXPECT_NEAR(Y[I], Want[I].real(), 1e-10);
}

TEST(CEmitter, StrideParametersAddressLogicalElements) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  SPL_SKIP_IF_FAULTS_ARMED();
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 64;
  DirectiveState Dirs;
  Dirs.SubName = "f2s";
  auto Unit = C.compileFormula(
      parseFormulaString("(F 2)", Diags), Dirs, Opts);
  ASSERT_TRUE(Unit) << Diags.dump();

  codegen::CEmitOptions CO;
  CO.StrideParams = true;
  std::string Code = codegen::emitC(Unit->Final, CO);
  ASSERT_NE(Code.find("int ioff"), std::string::npos);

  std::string Err;
  auto Mod = perf::NativeModule::compile(Code, "f2s", &Err);
  ASSERT_TRUE(Mod) << Err << Code;
  using StrideFn =
      void (*)(double *, const double *, int, int, int, int);
  auto Fn = reinterpret_cast<StrideFn>(
      reinterpret_cast<void *>(Mod->fn()));

  // Input complex elements at logical stride 2, offset 1:
  // x_logical[k] = buffer[1 + 2*k].
  std::vector<Cplx> Buf = {Cplx(9, 9), Cplx(1, 2), Cplx(9, 9), Cplx(3, -4),
                           Cplx(9, 9)};
  std::vector<double> BufR(Buf.size() * 2);
  for (size_t I = 0; I != Buf.size(); ++I) {
    BufR[2 * I] = Buf[I].real();
    BufR[2 * I + 1] = Buf[I].imag();
  }
  std::vector<double> OutR(8, 0.0); // Out at stride 2, offset 0.
  Fn(OutR.data(), BufR.data(), /*ioff=*/1, /*ooff=*/0, /*istride=*/2,
     /*ostride=*/2);
  Cplx X0(1, 2), X1(3, -4);
  EXPECT_NEAR(std::abs(Cplx(OutR[0], OutR[1]) - (X0 + X1)), 0, 1e-12);
  EXPECT_NEAR(std::abs(Cplx(OutR[4], OutR[5]) - (X0 - X1)), 0, 1e-12);
}

TEST(CEmitter, VectorizeWrapperComputesTensorWithIdentity) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  SPL_SKIP_IF_FAULTS_ARMED();
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 64;
  DirectiveState Dirs;
  Dirs.SubName = "f2v";
  auto Unit =
      C.compileFormula(parseFormulaString("(F 2)", Diags), Dirs, Opts);
  ASSERT_TRUE(Unit) << Diags.dump();

  codegen::CEmitOptions CO;
  CO.VectorizeCount = 3; // F2 (x) I3.
  std::string Code = codegen::emitC(Unit->Final, CO);
  std::string Err;
  auto Mod = perf::NativeModule::compile(Code, "f2v", &Err);
  ASSERT_TRUE(Mod) << Err << Code;

  FormulaRef Want = makeTensor(makeDFT(2), makeIdentity(3));
  std::vector<Cplx> X = randomVector(6);
  std::vector<double> XR(12), YR(12, 0.0);
  for (int I = 0; I < 6; ++I) {
    XR[2 * I] = X[I].real();
    XR[2 * I + 1] = X[I].imag();
  }
  Mod->fn()(YR.data(), XR.data());
  std::vector<Cplx> Ref = Want->toMatrix().apply(X);
  for (int I = 0; I < 6; ++I)
    EXPECT_NEAR(std::abs(Cplx(YR[2 * I], YR[2 * I + 1]) - Ref[I]), 0, 1e-12)
        << Code;
}

TEST(FortranEmitter, PaperI64F2Shape) {
  // The paper's Section 3.3.1 example: (tensor (I 32) (tensor (I 2) (F 2)))
  // with the inner part unrolled produces a 32-iteration loop whose body is
  // the unrolled butterfly pair.
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  auto Units = C.compileSource(R"(
#datatype real
#language fortran
#unroll on
(define I2F2 (tensor (I 2) (F 2)))
#unroll off
#subname I64F2
(tensor (I 32) I2F2)
)",
                               Opts);
  ASSERT_TRUE(Units) << Diags.dump();
  const std::string &Code = Units->front().Code;
  EXPECT_NE(Code.find("subroutine I64F2 (y,x)"), std::string::npos) << Code;
  EXPECT_NE(Code.find("implicit real*8 (f)"), std::string::npos);
  EXPECT_NE(Code.find("real*8 y(128),x(128)"), std::string::npos);
  EXPECT_NE(Code.find("do i"), std::string::npos);
  EXPECT_NE(Code.find("end do"), std::string::npos);
  // The loop body is straight-line butterflies: subscripts 4*i+c appear.
  EXPECT_NE(Code.find("4*i"), std::string::npos);
}

TEST(FortranEmitter, ComplexCodetypeUsesComplexType) {
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  auto Units = C.compileSource("#language fortran\n#codetype complex\n"
                               "#subname cplx4\n(F 4)",
                               Opts);
  ASSERT_TRUE(Units) << Diags.dump();
  const std::string &Code = Units->front().Code;
  EXPECT_NE(Code.find("complex*16 y(4),x(4)"), std::string::npos) << Code;
  EXPECT_EQ(Code.find("real*8 y("), std::string::npos);
}

TEST(FortranEmitter, LinesFitFixedForm) {
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 16;
  auto Units = C.compileSource("#language fortran\n(F 16)", Opts);
  ASSERT_TRUE(Units) << Diags.dump();
  std::istringstream SS(Units->front().Code);
  std::string Line;
  while (std::getline(SS, Line))
    EXPECT_LE(Line.size(), 72u) << Line;
}

/// Compiles a complex-datatype formula, renders it through the vector
/// emitter for \p ISA, builds it natively, packs laneCount(ISA) distinct
/// random columns slot-major, runs once, and checks every column against
/// the dense oracle.
void checkVectorC(const std::string &Source, std::int64_t Threshold,
                  codegen::VectorISA ISA) {
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no system C compiler";
  SPL_SKIP_IF_FAULTS_ARMED();
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = Threshold;
  auto Unit = compileOne(Source, Opts);

  codegen::CEmitOptions CO;
  CO.ISA = ISA;
  std::string Code = codegen::emitC(Unit.Final, CO);

  std::string Err;
  auto Mod =
      perf::NativeModule::compile(Code, Unit.SubName, &Err,
                                  "-O2 " + codegen::isaCompilerFlags(ISA));
  ASSERT_TRUE(Mod) << Err << "\n" << Code;

  const int M = codegen::laneCount(ISA);
  std::int64_t N = Unit.Final.InSize;
  std::int64_t NOut = Unit.Final.OutSize;
  std::vector<std::vector<Cplx>> Cols;
  std::vector<double> PX(2 * N * M, 0.0), PY(2 * NOut * M, 0.0);
  for (int J = 0; J < M; ++J) {
    Cols.push_back(randomVector(N, /*Seed=*/1000 + J));
    for (std::int64_t I = 0; I != N; ++I) {
      PX[(2 * I) * M + J] = Cols[J][I].real();
      PX[(2 * I + 1) * M + J] = Cols[J][I].imag();
    }
  }
  Mod->fn()(PY.data(), PX.data());

  Matrix Dense = Unit.Formula->toMatrix();
  for (int J = 0; J < M; ++J) {
    std::vector<Cplx> Want = Dense.apply(Cols[J]);
    double Max = 0;
    for (std::int64_t I = 0; I != NOut; ++I)
      Max = std::max(Max,
                     std::abs(Cplx(PY[(2 * I) * M + J],
                                   PY[(2 * I + 1) * M + J]) -
                              Want[I]));
    EXPECT_LT(Max, 1e-10) << "column " << J << "\n" << Code;
  }
}

const char *kVecFFT8 =
    "#subname vfft8\n"
    "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) "
    "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) "
    "(L 4 2))) (L 8 2))";

const char *kVecFFT16Loop =
    "#subname vfft16\n"
    "(compose (tensor (F 4) (I 4)) (T 16 4) (tensor (I 4) (F 4)) "
    "(L 16 4))";

TEST(VectorEmitter, HostISAUnrolledKernelMatchesOracle) {
  checkVectorC(kVecFFT8, /*Threshold=*/64, codegen::detectISA());
}

TEST(VectorEmitter, HostISALoopKernelMatchesOracle) {
  checkVectorC(kVecFFT16Loop, /*Threshold=*/4, codegen::detectISA());
}

TEST(VectorEmitter, ForcedScalarISADegeneratesToOneLane) {
  ASSERT_EQ(codegen::laneCount(codegen::VectorISA::Scalar), 1);
  checkVectorC(kVecFFT8, /*Threshold=*/64, codegen::VectorISA::Scalar);
}

TEST(VectorEmitter, NEONKernelMatchesOracle) {
  // 2-lane GNU vectors need no NEON header: any GCC/clang host builds and
  // runs them (x86-64 as SSE2).
  checkVectorC(kVecFFT8, /*Threshold=*/64, codegen::VectorISA::NEON);
}

TEST(VectorEmitter, EmissionIsOneHeaderFreeLaneWiseTypedef) {
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 2;
  // A 16384-double temporary is malloc'd at every lane count above one
  // under ThreadSafe: the one header the text may include.
  auto Unit = compileOne("#datatype real\n#subname vtmp16k\n"
                         "(compose (tensor (F 2) (I 8192)) "
                         "(tensor (I 8192) (F 2)))",
                         Opts);
  for (codegen::VectorISA ISA :
       {codegen::VectorISA::AVX2, codegen::VectorISA::NEON}) {
    SCOPED_TRACE(codegen::isaName(ISA));
    codegen::CEmitOptions CO;
    CO.ISA = ISA;
    CO.ThreadSafe = true;
    std::string Code = codegen::emitC(Unit.Final, CO);
    std::string Typedef =
        "typedef double vd __attribute__((vector_size(" +
        std::to_string(8 * codegen::laneCount(ISA)) + "), aligned(8)));\n";
    EXPECT_NE(Code.find(Typedef), std::string::npos) << Code;
    size_t Typedefs = 0;
    for (size_t At = Code.find("typedef"); At != std::string::npos;
         At = Code.find("typedef", At + 1))
      ++Typedefs;
    EXPECT_EQ(Typedefs, 1u) << Code;
    size_t Include = Code.find("#include");
    ASSERT_NE(Include, std::string::npos) << Code;
    EXPECT_EQ(Code.compare(Include, 20, "#include <stdlib.h>\n"), 0) << Code;
    EXPECT_EQ(Code.find("#include", Include + 1), std::string::npos) << Code;
    // Lane independence is the whole correctness argument (zero-padded
    // tail groups, thread-count bit-identity): no cross-lane ops and no FMA
    // spelling in the text. The C compiler may still contract a mul and an
    // add into an FMA under -mfma, which is lane-wise too but can change
    // the last bits against the scalar kernel.
    for (const char *Banned : {"__builtin_shuffle", "_mm256_", "vfmaq"})
      EXPECT_EQ(Code.find(Banned), std::string::npos) << Banned;
  }
}

std::string renderFor(const icode::Program &P, codegen::VectorISA ISA,
                      bool ThreadSafe) {
  codegen::CEmitOptions CO;
  CO.ISA = ISA;
  CO.ThreadSafe = ThreadSafe;
  return codegen::emitC(P, CO);
}

TEST(CEmitter, TempStorageLimitScalesWithLanes) {
  // A loop program with one 8192-double temp vector: within the 2^14-double
  // stack limit at one lane, over it at four (AVX2's 32768 doubles).
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 2;
  auto Unit = compileOne("#datatype real\n#subname tmp8k\n"
                         "(compose (tensor (F 2) (I 4096)) "
                         "(tensor (I 4096) (F 2)))",
                         Opts);
  ASSERT_EQ(Unit.Final.TempVecSizes, std::vector<std::int64_t>({8192}));

  for (bool ThreadSafe : {false, true}) {
    SCOPED_TRACE(ThreadSafe ? "ThreadSafe" : "not ThreadSafe");
    std::string Scalar =
        renderFor(Unit.Final, codegen::VectorISA::Scalar, ThreadSafe);
    EXPECT_NE(Scalar.find("\n  double t0[8192];\n"), std::string::npos)
        << Scalar;
    EXPECT_EQ(Scalar.find("malloc"), std::string::npos) << Scalar;
    EXPECT_EQ(Scalar.find("static double"), std::string::npos) << Scalar;
  }

  std::string Static =
      renderFor(Unit.Final, codegen::VectorISA::AVX2, /*ThreadSafe=*/false);
  EXPECT_NE(Static.find("\n  static double t0[32768];\n"), std::string::npos)
      << Static;
  EXPECT_EQ(Static.find("malloc"), std::string::npos) << Static;

  std::string Heap =
      renderFor(Unit.Final, codegen::VectorISA::AVX2, /*ThreadSafe=*/true);
  EXPECT_NE(Heap.find("#include <stdlib.h>\n"), std::string::npos) << Heap;
  EXPECT_NE(Heap.find("\n  double *t0 = (double *)malloc(32768 * "
                      "sizeof(double));\n"),
            std::string::npos)
      << Heap;
  EXPECT_NE(Heap.find("\n  free(t0);\n}\n"), std::string::npos) << Heap;
  EXPECT_EQ(Heap.find("static double"), std::string::npos) << Heap;
}

TEST(Driver, OptLevelsProduceDifferentCodeSizes) {
  const char *Src = "(compose (tensor (F 2) (I 2)) (T 4 2) "
                    "(tensor (I 2) (F 2)) (L 4 2))";
  size_t Sizes[3];
  int Idx = 0;
  for (auto Level : {opt::OptLevel::None, opt::OptLevel::Scalarize,
                     opt::OptLevel::Default}) {
    driver::CompilerOptions Opts;
    Opts.Level = Level;
    Opts.UnrollThreshold = 64;
    Sizes[Idx++] = compileOne(Src, Opts).Final.staticSize();
  }
  EXPECT_LE(Sizes[2], Sizes[0]);
}

} // namespace
