//===- tests/ExpanderTest.cpp - Expansion correctness ----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The central correctness property of the compiler front half: for every
/// formula, expanding to i-code and executing in the VM computes the same
/// matrix-vector product as the dense matrix semantics.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "frontend/Parser.h"
#include "ir/Builder.h"
#include "lower/Expander.h"
#include "templates/Registry.h"
#include "vm/Executor.h"
#include "xform/IntrinEval.h"

#include <gtest/gtest.h>

using namespace spl;
using namespace spl::test;

namespace {

/// Expands \p F and checks VM output against the dense oracle.
void checkFormula(const FormulaRef &F, std::int64_t UnrollThreshold = 0,
                  double Tol = 1e-9) {
  ASSERT_TRUE(F);
  Diagnostics Diags;
  auto Registry = tpl::TemplateRegistry::withBuiltins();
  lower::Expander Exp(Registry, Diags);
  lower::ExpandOptions Opts;
  Opts.UnrollThreshold = UnrollThreshold;
  auto Prog = Exp.expand(F, Opts);
  ASSERT_TRUE(Prog) << Diags.dump();
  EXPECT_EQ(Prog->verify(), "");

  vm::Executor VM(*Prog);
  std::vector<Cplx> X = randomVector(Prog->InSize);
  std::vector<Cplx> Got;
  VM.run(X, Got);

  std::vector<Cplx> Want = F->toMatrix().apply(X);
  EXPECT_LT(maxAbsDiff(Got, Want), Tol) << "formula: " << F->print();
}

void checkSource(const std::string &Source) {
  Diagnostics Diags;
  FormulaRef F = parseFormulaString(Source, Diags);
  ASSERT_TRUE(F) << Diags.dump();
  checkFormula(F);
}

TEST(Expander, RealifySplicesTheLoweredOperand) {
  // (realify A) splices A's program, lowered to reals, under the offsets
  // and strides of its instance: loops kept or unrolled, inside a tensor on
  // either side, and composed with the split butterfly (S n). The spliced
  // body is real-linear, so it also runs on complex data.
  for (std::int64_t B : {0, 16})
    for (const char *Source :
         {"(realify (F 3))",
          "(realify (compose (tensor (F 2) (I 4)) (T 8 4) "
          "(tensor (I 2) (F 4)) (L 8 2)))",
          "(tensor (I 2) (realify (F 4)))", "(tensor (realify (F 2)) (I 3))",
          "(compose (S 16) (realify (F 8)))"}) {
      Diagnostics Diags;
      FormulaRef F = parseFormulaString(Source, Diags);
      ASSERT_TRUE(F) << Diags.dump();
      EXPECT_EQ(F->print(), Source);
      checkFormula(F, B);
    }
}

TEST(Expander, IdentityCopies) {
  checkFormula(makeIdentity(1));
  checkFormula(makeIdentity(7));
}

TEST(Expander, DFTByDefinition) {
  for (std::int64_t N : {1, 2, 3, 4, 5, 8, 12})
    checkFormula(makeDFT(N));
}

TEST(Expander, StridePermutation) {
  checkFormula(makeStride(4, 2));
  checkFormula(makeStride(6, 2));
  checkFormula(makeStride(6, 3));
  checkFormula(makeStride(12, 4));
  checkFormula(makeStride(16, 16));
  checkFormula(makeStride(8, 1));
}

TEST(Expander, TwiddleMatrix) {
  checkFormula(makeTwiddle(4, 2));
  checkFormula(makeTwiddle(8, 4));
  checkFormula(makeTwiddle(12, 3));
}

TEST(Expander, TransformsByDefinition) {
  checkFormula(makeWHT(8));
  checkFormula(makeDCT2(6));
  checkFormula(makeDCT4(5));
}

TEST(Expander, ComposeUsesTemporary) {
  checkFormula(makeCompose(makeDFT(4), makeStride(4, 2)));
  checkFormula(
      makeCompose({makeTwiddle(4, 2), makeDFT(4), makeStride(4, 2)}));
}

TEST(Expander, TensorWithIdentityLeft) {
  checkFormula(makeTensor(makeIdentity(3), makeDFT(2)));
  checkFormula(makeTensor(makeIdentity(2), makeDFT(4)));
}

TEST(Expander, TensorWithIdentityRight) {
  checkFormula(makeTensor(makeDFT(2), makeIdentity(3)));
  checkFormula(makeTensor(makeDFT(4), makeIdentity(2)));
}

TEST(Expander, GeneralTensorSplits) {
  checkFormula(makeTensor(makeDFT(2), makeDFT(3)));
  checkFormula(makeTensor(makeDFT(3), makeDFT(2)));
  checkFormula(makeTensor(makeDFT(2), makeTensor(makeDFT(2), makeDFT(2))));
}

TEST(Expander, DirectSum) {
  checkFormula(makeDirectSum(makeDFT(2), makeIdentity(3)));
  checkFormula(makeDirectSum({makeDFT(2), makeDFT(3), makeIdentity(2)}));
}

TEST(Expander, ExplicitMatrices) {
  checkFormula(makeGenMatrix({{Cplx(1, 0), Cplx(2, 0)},
                              {Cplx(0, 1), Cplx(-1, 0)},
                              {Cplx(0, 0), Cplx(3, 0)}}));
  checkFormula(makeDiagonal({Cplx(1, 0), Cplx(0, -1), Cplx(2, 0.5)}));
  checkFormula(makePermutation({3, 1, 2}));
}

TEST(Expander, CooleyTukeyF4) {
  // F4 = (F2 (x) I2) T^4_2 (I2 (x) F2) L^4_2 (Equation 3).
  checkSource("(compose (tensor (F 2) (I 2)) (T 4 2) "
              "(tensor (I 2) (F 2)) (L 4 2))");
}

TEST(Expander, PaperFFT16Program) {
  // The paper's Section 2.2 example.
  Diagnostics Diags;
  Parser P(R"((define F4 (compose (tensor (F 2) (I 2)) (T 4 2)
                                  (tensor (I 2) (F 2)) (L 4 2)))
              #subname fft16
              (compose (tensor F4 (I 4)) (T 16 4)
                       (tensor (I 4) F4) (L 16 4)))",
           Diags);
  auto Prog = P.parseProgram();
  ASSERT_TRUE(Prog) << Diags.dump();
  ASSERT_EQ(Prog->Items.size(), 1u);
  EXPECT_EQ(Prog->Items[0].Dirs.SubName, "fft16");
  checkFormula(Prog->Items[0].Formula);
}

TEST(Expander, UnrollThresholdStillCorrect) {
  Diagnostics Diags;
  FormulaRef F = parseFormulaString(
      "(compose (tensor (F 2) (I 4)) (T 8 4) (tensor (I 2) (F 4)) (L 8 2))",
      Diags);
  ASSERT_TRUE(F) << Diags.dump();
  checkFormula(F, /*UnrollThreshold=*/0);
  checkFormula(F, /*UnrollThreshold=*/4);
  checkFormula(F, /*UnrollThreshold=*/64);
}

TEST(Expander, SizeInferenceForUserTemplates) {
  // A user-defined "reverse" matrix (J n): y_i = x_{n-1-i}.
  Diagnostics Diags;
  auto Registry = tpl::TemplateRegistry::withBuiltins();
  auto UserDefs = parseTemplateString(R"(
    (template (J n_) [n_ >= 1]
      (do $i0 = 0, n_-1
         $out($i0) = $in(n_-1-$i0)
       end)))",
                                      Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  ASSERT_EQ(UserDefs.size(), 1u);
  Registry.addAll(std::move(UserDefs));

  FormulaRef J4 = parseFormulaString("(J 4)", Diags);
  ASSERT_TRUE(J4);
  lower::Expander Exp(Registry, Diags);
  auto Sizes = Exp.inferSizes(J4);
  ASSERT_TRUE(Sizes) << Diags.dump();
  EXPECT_EQ(Sizes->first, 4);
  EXPECT_EQ(Sizes->second, 4);

  auto Prog = Exp.expand(J4, {});
  ASSERT_TRUE(Prog) << Diags.dump();
  vm::Executor VM(*Prog);
  std::vector<Cplx> X = randomVector(4), Y;
  VM.run(X, Y);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Y[I], X[3 - I]);
}

TEST(Expander, UserTemplateOverridesBuiltin) {
  // Override (F 2) with a deliberately wrong template (scaling by 2) and
  // observe that the later definition wins.
  Diagnostics Diags;
  auto Registry = tpl::TemplateRegistry::withBuiltins();
  Registry.addAll(parseTemplateString(R"(
    (template (F 2)
      ($out(0) = 2 * $in(0)
       $out(1) = 2 * $in(1))))",
                                      Diags));
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();

  lower::Expander Exp(Registry, Diags);
  auto Prog = Exp.expand(makeDFT(2), {});
  ASSERT_TRUE(Prog) << Diags.dump();
  vm::Executor VM(*Prog);
  std::vector<Cplx> X = {Cplx(1, 0), Cplx(3, 0)}, Y;
  VM.run(X, Y);
  EXPECT_EQ(Y[0], Cplx(2, 0));
  EXPECT_EQ(Y[1], Cplx(6, 0));
}

TEST(Expander, UserCompositeTemplateFusesLoops) {
  // The paper's loop-fusion example: a template recognizing
  // (compose (tensor (I n) A) (tensor (I n) B)) and emitting one loop.
  Diagnostics Diags;
  auto Registry = tpl::TemplateRegistry::withBuiltins();
  Registry.addAll(parseTemplateString(R"(
    (template (compose (tensor (I n_) A_) (tensor (I n_) B_))
              [A_.in_size == B_.out_size]
      (do $i0 = 0, n_-1
         B_($in, $t0, $i0 * B_.in_size, 0, 1, 1)
         A_($t0, $out, 0, $i0 * A_.out_size, 1, 1)
       end)))",
                                      Diags));
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();

  FormulaRef F = parseFormulaString(
      "(compose (tensor (I 8) (F 2)) (tensor (I 8) (T 2 2)))", Diags);
  ASSERT_TRUE(F) << Diags.dump();

  lower::Expander Exp(Registry, Diags);
  auto Prog = Exp.expand(F, {});
  ASSERT_TRUE(Prog) << Diags.dump();

  // Exactly one loop at the top level (fused), not two.
  int TopLevelLoops = 0, Depth = 0;
  for (const auto &I : Prog->Body) {
    if (I.Opcode == icode::Op::Loop && Depth++ == 0)
      ++TopLevelLoops;
    else if (I.Opcode == icode::Op::End)
      --Depth;
  }
  EXPECT_EQ(TopLevelLoops, 1);

  vm::Executor VM(*Prog);
  std::vector<Cplx> X = randomVector(16), Got;
  VM.run(X, Got);
  std::vector<Cplx> Want = F->toMatrix().apply(X);
  EXPECT_LT(maxAbsDiff(Got, Want), 1e-10);
}

TEST(Expander, ErrorOnUnmatchedFormula) {
  Diagnostics Diags;
  tpl::TemplateRegistry Empty;
  lower::Expander Exp(Empty, Diags);
  auto Prog = Exp.expand(makeDFT(4), {});
  EXPECT_FALSE(Prog);
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(Expander, IntegerConstantsBeyondInt64AreErrors) {
  // 1e20 is integral, so it passes the integer check, but casting it to
  // int64 is undefined; the bound must be rejected, not wrapped.
  Diagnostics Diags;
  auto Registry = tpl::TemplateRegistry::withBuiltins();
  Registry.addAll(parseTemplateString(R"(
    (template (PQ n_)
      (do $i0 = 0, 1e20
         $out($i0) = $in($i0)
       end)))",
                                      Diags));
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  lower::Expander Exp(Registry, Diags);
  EXPECT_FALSE(Exp.expand(parseFormulaString("(PQ 2)", Diags), {}));
  ASSERT_FALSE(Diags.all().empty());
  EXPECT_EQ(Diags.all().back().Message, "integer constant out of range");
}

TEST(Expander, IntegerOverflowAndZeroDivisorsAreDiagnostics) {
  // Each integer operation of a body is bounded over its loops, so one that
  // can fail is an error here rather than a SIGFPE or a wrapped value in
  // unrolling, intrinsic evaluation or the VM. A condition that overflows
  // does not match (n_ * 2^62 used to wrap to 0 for n_ = 8 and match).
  const struct {
    const char *Condition;
    const char *Factor; ///< Multiplies $in($i0) in a loop over 0..n_-1.
    const char *Message; ///< The last diagnostic; "" when it expands.
  } Cases[] = {
      {"", "W(n_ 8 / $i0)", "the divisor can be zero within the loop bounds"},
      {"", "W(n_ 8 % ($i0 - 3))",
       "the divisor can be zero within the loop bounds"},
      {"", "W(n_ $i0 / 0)", "division by zero in integer expression"},
      {"", "W(n_ 4611686018427387904 * 4 + $i0)",
       "integer overflow in integer expression"},
      {"", "W(n_ 4611686018427387904 * $i0)",
       "integer overflow possible within the loop bounds"},
      {"", "W(n_, -$i0 - 9223372036854775807 - 2)",
       "integer overflow possible within the loop bounds"},
      {"", "W(n_ 8 / ($i0 + 1))", ""},
      {"", "W(n_ (-9223372036854775807 - 1 + $i0) % -1)", ""},
      {"n_ * 4611686018427387904 <= 0", "$in(0)",
       "no template matches user-defined matrix (PQ 8)"},
  };
  for (const auto &C : Cases) {
    std::string Source = std::string("(template (PQ n_) ") +
                         (*C.Condition ? "[" + std::string(C.Condition) + "] "
                                       : "") +
                         "(do $i0 = 0, n_-1\n $out($i0) = " + C.Factor +
                         " * $in($i0)\n end))";
    SCOPED_TRACE(Source);
    Diagnostics Diags;
    auto Registry = tpl::TemplateRegistry::withBuiltins();
    Registry.addAll(parseTemplateString(Source, Diags));
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
    lower::Expander Exp(Registry, Diags);
    auto Prog = Exp.expand(parseFormulaString("(PQ 8)", Diags), {});
    if (!*C.Message) {
      ASSERT_TRUE(Prog) << Diags.dump();
      vm::Executor VM(*Prog);
      std::vector<Cplx> X = randomVector(8), Y;
      VM.run(X, Y);
      continue;
    }
    EXPECT_FALSE(Prog);
    ASSERT_FALSE(Diags.all().empty());
    EXPECT_EQ(Diags.all().back().Message, C.Message);
  }
}

TEST(Expander, IntrinsicOrdersMustBePositive) {
  // An intrinsic's order is a divisor of its evaluation (W's k mod n): an
  // order that is or can be 0 used to kill the compiler with SIGFPE in
  // intrinsic evaluation. A table over more than 2^63 index combinations
  // is an error too; an empty loop needs no table at all.
  const struct {
    const char *Loop;   ///< The loop header over $i0.
    const char *Factor; ///< Multiplies $in($i0).
    const char *Message; ///< The last diagnostic; "" when it expands.
  } Cases[] = {
      {"0, n_-1", "W(n_-1 $i0)", "the order of intrinsic 'W' must be positive"},
      {"0, n_-1", "W(0 $i0)", "the order of intrinsic 'W' must be positive"},
      {"0, n_-1", "W($i0 1)",
       "the order of intrinsic 'W' can be nonpositive within the loop bounds"},
      {"0, n_-1", "TW(4 n_-1 $i0)",
       "the order of intrinsic 'TW' must be positive"},
      {"0, n_-1", "DCT2E(-2 $i0 $i0)",
       "the order of intrinsic 'DCT2E' must be positive"},
      {"-4611686018427387904, 4611686018427387904", "W(8 $i0)",
       "the table of intrinsic 'W' over its loops would exceed 2^63 entries"},
      {"0, -5", "W(8 $i0)", ""},
      {"0, n_-1", "W($i0 + 1 $i0)", ""},
  };
  for (const auto &C : Cases) {
    std::string Source = std::string("(template (PQ n_) (do $i0 = ") + C.Loop +
                         "\n $out(0) = " + C.Factor + " * $in(0)\n end))";
    SCOPED_TRACE(Source);
    Diagnostics Diags;
    auto Registry = tpl::TemplateRegistry::withBuiltins();
    Registry.addAll(parseTemplateString(Source, Diags));
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
    lower::Expander Exp(Registry, Diags);
    auto Prog = Exp.expand(parseFormulaString("(PQ 1)", Diags), {});
    if (!*C.Message) {
      ASSERT_TRUE(Prog) << Diags.dump();
      // Intrinsic evaluation tables only loops that run.
      icode::Program E = xform::evalIntrinsics(*Prog);
      EXPECT_EQ(E.Tables.size(), std::string(C.Loop) == "0, -5" ? 0u : 1u);
      continue;
    }
    EXPECT_FALSE(Prog);
    ASSERT_FALSE(Diags.all().empty());
    EXPECT_EQ(Diags.all().back().Message, C.Message);
  }
}

TEST(Expander, ModuloInsideAFloatingPointOperandIsAnError) {
  // '%' nested in a floating-point expression used to recurse between
  // flattenOperand and floatOperand until the stack overflowed.
  for (const char *Rhs : {"$in(0) % 2", "$in(0) + $in(1) % 2",
                          "-($in(0) % 2)"}) {
    Diagnostics Diags;
    auto Registry = tpl::TemplateRegistry::withBuiltins();
    Registry.addAll(parseTemplateString(
        std::string("(template (PQ n_) ($out(0) = ") + Rhs + "))", Diags));
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
    lower::Expander Exp(Registry, Diags);
    EXPECT_FALSE(Exp.expand(parseFormulaString("(PQ 2)", Diags), {})) << Rhs;
    ASSERT_FALSE(Diags.all().empty()) << Rhs;
    EXPECT_EQ(Diags.all().back().Message,
              "'%' is not a floating-point operation")
        << Rhs;
  }
}

} // namespace
