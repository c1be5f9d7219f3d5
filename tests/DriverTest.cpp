//===- tests/DriverTest.cpp - Driver and error-path tests -------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end driver tests (multi-formula programs, user templates in
/// source, directive interactions) and the expander's error paths: every
/// misuse a template author can commit must produce a diagnostic, not a
/// crash or silent wrong code.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "driver/Compiler.h"
#include "ir/Builder.h"
#include "lower/Expander.h"
#include "templates/Registry.h"
#include "vm/Executor.h"

#include <gtest/gtest.h>

using namespace spl;
using namespace spl::test;

namespace {

TEST(Driver, MultiFormulaProgram) {
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  auto Units = C.compileSource(R"(
#subname first
(F 4)
#subname second
#datatype real
(WHT 4)
)",
                               Opts);
  ASSERT_TRUE(Units) << Diags.dump();
  ASSERT_EQ(Units->size(), 2u);
  EXPECT_EQ((*Units)[0].SubName, "first");
  EXPECT_EQ((*Units)[1].SubName, "second");
  EXPECT_EQ((*Units)[0].Final.LoweredToReal, true);  // Complex datatype.
  EXPECT_EQ((*Units)[1].Final.LoweredToReal, false); // Real datatype.
}

TEST(Driver, TemplatesInSourceApplyToLaterFormulas) {
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  auto Units = C.compileSource(R"(
(template (DBL n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = 2 * $in($i0)
   end))
#datatype real
#subname doubler
(DBL 5)
)",
                               Opts);
  ASSERT_TRUE(Units) << Diags.dump();
  vm::Executor VM(Units->front().Final);
  std::vector<double> X = {1, 2, 3, 4, 5}, Y;
  VM.runReal(X, Y);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(Y[I], 2.0 * (I + 1));
}

TEST(Driver, UserTemplatesStayWithTheirCompiler) {
  // The built-in templates are parsed once per process and copied into
  // every compiler: what one compiler registers never reaches the next.
  const size_t Builtins = tpl::TemplateRegistry::withBuiltins().defs().size();
  driver::CompilerOptions Opts;
  {
    Diagnostics Diags;
    driver::Compiler C(Diags);
    ASSERT_TRUE(C.compileSource(R"(
(template (DBL n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = 2 * $in($i0)
   end))
#datatype real
(DBL 5)
)",
                                Opts))
        << Diags.dump();
    C.templates().addAll(parseTemplateString(R"(
(template (TPL n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = 3 * $in($i0)
   end))
)",
                                             Diags));
    ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
    EXPECT_EQ(C.templates().defs().size(), Builtins + 2);
  }
  Diagnostics Diags;
  driver::Compiler Next(Diags);
  EXPECT_EQ(Next.templates().defs().size(), Builtins);
  EXPECT_EQ(tpl::TemplateRegistry::withBuiltins().defs().size(), Builtins);
  EXPECT_FALSE(Next.compileSource("#datatype real\n(DBL 5)", Opts));
  EXPECT_FALSE(Next.compileSource("#datatype real\n(TPL 5)", Opts));
  EXPECT_NE(Diags.dump().find("no template matches user-defined matrix (DBL"),
            std::string::npos)
      << Diags.dump();
}

TEST(Driver, LanguageOverrideWins) {
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  Opts.LanguageOverride = "fortran";
  auto Units = C.compileSource("#language c\n(F 2)", Opts);
  ASSERT_TRUE(Units) << Diags.dump();
  EXPECT_EQ(Units->front().Language, "fortran");
  EXPECT_NE(Units->front().Code.find("subroutine"), std::string::npos);
}

TEST(Driver, EmitCodeOffSkipsRendering) {
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  Opts.EmitCode = false;
  auto Units = C.compileSource("(F 8)", Opts);
  ASSERT_TRUE(Units) << Diags.dump();
  EXPECT_TRUE(Units->front().Code.empty());
  EXPECT_GT(Units->front().Final.staticSize(), 0u);
}

/// Expands source with custom templates and expects failure mentioning
/// \p Needle.
void expectExpansionError(const std::string &TemplateSrc,
                          const std::string &FormulaSrc,
                          const std::string &Needle) {
  Diagnostics Diags;
  auto Registry = tpl::TemplateRegistry::withBuiltins();
  Registry.addAll(parseTemplateString(TemplateSrc, Diags));
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  FormulaRef F = parseFormulaString(FormulaSrc, Diags);
  ASSERT_TRUE(F) << Diags.dump();
  lower::Expander Exp(Registry, Diags);
  auto P = Exp.expand(F, {});
  EXPECT_FALSE(P) << "expected failure for " << FormulaSrc;
  EXPECT_NE(Diags.dump().find(Needle), std::string::npos) << Diags.dump();
}

TEST(ExpanderErrors, NonAffineSubscript) {
  expectExpansionError(R"(
    (template (BADSUB n_)
      (do $i0 = 0, n_-1
         do $i1 = 0, n_-1
            $out($i0 * $i1) = $in($i0)
         end
       end)))",
                       "(BADSUB 4)", "linear");
}

TEST(ExpanderErrors, ReadOfUnwrittenTemporary) {
  expectExpansionError(R"(
    (template (BADTMP n_)
      (do $i0 = 0, n_-1
         $out($i0) = $t0($i0)
       end)))",
                       "(BADTMP 4)", "before anything was written");
}

TEST(ExpanderErrors, NonConstantLoopBounds) {
  expectExpansionError(R"(
    (template (BADLOOP n_)
      (do $i0 = 0, n_-1
         do $i1 = 0, $i0
            $out($i1) = $in($i1)
         end
       end)))",
                       "(BADLOOP 4)", "compile-time constants");
}

TEST(ExpanderErrors, UnknownIntrinsic) {
  expectExpansionError(R"(
    (template (BADFN n_)
      (do $i0 = 0, n_-1
         $out($i0) = NOSUCH(n_ $i0) * $in($i0)
       end)))",
                       "(BADFN 4)", "unknown intrinsic");
}

TEST(ExpanderErrors, UseOfUnassignedScalar) {
  expectExpansionError(R"(
    (template (BADSCALAR n_)
      (do $i0 = 0, n_-1
         $out($i0) = $f9 + $in($i0)
       end)))",
                       "(BADSCALAR 4)", "unassigned scalar");
}

TEST(ExpanderErrors, ConditionRejectionFallsThrough) {
  // A template whose condition never holds leaves the formula unmatched.
  Diagnostics Diags;
  tpl::TemplateRegistry Registry; // No builtins.
  Registry.addAll(parseTemplateString(R"(
    (template (ONLYBIG n_) [n_ > 100]
      (do $i0 = 0, n_-1
         $out($i0) = $in($i0)
       end)))",
                                      Diags));
  FormulaRef F = parseFormulaString("(ONLYBIG 4)", Diags);
  ASSERT_TRUE(F);
  lower::Expander Exp(Registry, Diags);
  EXPECT_FALSE(Exp.expand(F, {}));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ExpanderErrors, PatternFormulaRejected) {
  Diagnostics Diags;
  auto Registry = tpl::TemplateRegistry::withBuiltins();
  lower::Expander Exp(Registry, Diags);
  FormulaRef P = makeDFT(IntArg("n_"));
  EXPECT_FALSE(Exp.expand(P, {}));
  EXPECT_TRUE(Diags.hasErrors());
}

TEST(ExpanderErrors, RealDatatypeRejectsComplexConstants) {
  Diagnostics Diags;
  auto Registry = tpl::TemplateRegistry::withBuiltins();
  lower::Expander Exp(Registry, Diags);
  FormulaRef F = parseFormulaString("(diagonal (1 (0,1)))", Diags);
  ASSERT_TRUE(F);
  lower::ExpandOptions Opts;
  Opts.Datatype = icode::DataType::Real;
  EXPECT_FALSE(Exp.expand(F, Opts));
  EXPECT_NE(Diags.dump().find("real"), std::string::npos);
}

TEST(ExpanderErrors, ComplexTwiddlesUnderRealDatatypeDiagnosed) {
  // The TW intrinsic produces complex twiddles; a #datatype real program
  // using (T 4 2) must be rejected with a diagnostic, not compiled with
  // silently wrong semantics.
  Diagnostics Diags;
  driver::Compiler C(Diags);
  driver::CompilerOptions Opts;
  auto Units = C.compileSource("#datatype real\n(T 4 2)", Opts);
  EXPECT_FALSE(Units);
  EXPECT_NE(Diags.dump().find("complex constants under #datatype real"),
            std::string::npos)
      << Diags.dump();
}

} // namespace
