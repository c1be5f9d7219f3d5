//===- tests/FrontendTest.cpp - Lexer and parser tests ----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "icode/ICode.h"
#include "ir/Builder.h"
#include "lower/Expander.h"
#include "support/StrUtil.h"
#include "templates/Registry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <optional>
#include <random>
#include <sstream>

using namespace spl;

namespace {

TEST(Lexer, BasicTokens) {
  Diagnostics Diags;
  auto Toks = lex("(compose (F 2) (I 3)) ; comment\n(L 4 2)", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  ASSERT_GE(Toks.size(), 14u);
  EXPECT_TRUE(Toks[0].is(Tok::LParen));
  EXPECT_TRUE(Toks[1].isSymbol("compose"));
  EXPECT_TRUE(Toks[3].isSymbol("F"));
  EXPECT_TRUE(Toks[4].is(Tok::Number));
  EXPECT_TRUE(Toks[4].IsInt);
  EXPECT_EQ(Toks[4].Int, 2);
  EXPECT_TRUE(Toks.back().is(Tok::Eof));
}

TEST(Lexer, HyphenatedNamesVsSubtraction) {
  Diagnostics Diags;
  auto Toks = lex("direct-sum n_-1 m_-n_", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Toks[0].isSymbol("direct-sum"));
  EXPECT_TRUE(Toks[1].isSymbol("n_"));
  EXPECT_TRUE(Toks[2].is(Tok::Minus));
  EXPECT_EQ(Toks[3].Int, 1);
  EXPECT_TRUE(Toks[4].isSymbol("m_"));
  EXPECT_TRUE(Toks[5].is(Tok::Minus));
  EXPECT_TRUE(Toks[6].isSymbol("n_"));
}

TEST(Lexer, DirectivesAndComments) {
  Diagnostics Diags;
  auto Toks = lex("#subname fft16 ; trailing\n(F 2)", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Toks[0].is(Tok::Directive));
  // The comment is part of the directive line; directives keep raw text.
  EXPECT_TRUE(startsWith(Toks[0].Text, "subname fft16"));
  EXPECT_TRUE(Toks[1].is(Tok::LParen));
}

TEST(Lexer, NumbersIntAndFloat) {
  Diagnostics Diags;
  auto Toks = lex("12 1.23 2e3 7e-2", Diags);
  ASSERT_FALSE(Diags.hasErrors());
  EXPECT_TRUE(Toks[0].IsInt);
  EXPECT_FALSE(Toks[1].IsInt);
  EXPECT_DOUBLE_EQ(Toks[1].Num, 1.23);
  EXPECT_DOUBLE_EQ(Toks[2].Num, 2000.0);
  EXPECT_DOUBLE_EQ(Toks[3].Num, 0.07);
}

TEST(Lexer, IntegerLiteralsBeyondInt64AreErrors) {
  // strtoll saturates at INT64_MAX; the lexer must not hand that on as the
  // literal's value, neither in a formula nor in a template's do bound.
  for (const char *Src : {"(I 99999999999999999999)",
                          "(template (PQ n_) (do $i0 = 0, "
                          "99999999999999999999 $out($i0) = $in($i0) end))"}) {
    Diagnostics Diags;
    lex(Src, Diags);
    ASSERT_TRUE(Diags.hasErrors()) << Src;
    EXPECT_EQ(Diags.all().front().Message,
              "integer literal out of range: 99999999999999999999")
        << Src;
  }
  Diagnostics Diags;
  EXPECT_FALSE(parseFormulaString("(I 99999999999999999999)", Diags) &&
               !Diags.hasErrors());

  Diagnostics Max;
  auto Toks = lex("9223372036854775807", Max);
  EXPECT_FALSE(Max.hasErrors()) << Max.dump();
  EXPECT_EQ(Toks[0].Int, INT64_MAX);
}

TEST(Parser, ParameterizedMatrices) {
  Diagnostics Diags;
  FormulaRef F = parseFormulaString("(F 8)", Diags);
  ASSERT_TRUE(F) << Diags.dump();
  EXPECT_EQ(F->kind(), FKind::DFT);
  EXPECT_EQ(F->param(0), 8);
  EXPECT_EQ(F->inSize(), 8);

  FormulaRef L = parseFormulaString("(L 16 4)", Diags);
  ASSERT_TRUE(L);
  EXPECT_EQ(L->kind(), FKind::Stride);
  EXPECT_EQ(L->param(0), 16);
  EXPECT_EQ(L->param(1), 4);
}

TEST(Parser, NAryAssociatesRightToLeft) {
  Diagnostics Diags;
  FormulaRef F = parseFormulaString("(compose (F 2) (I 2) (F 2))", Diags);
  ASSERT_TRUE(F) << Diags.dump();
  ASSERT_EQ(F->kind(), FKind::Compose);
  EXPECT_EQ(F->child(0)->kind(), FKind::DFT);
  ASSERT_EQ(F->child(1)->kind(), FKind::Compose);
  EXPECT_EQ(F->child(1)->child(0)->kind(), FKind::Identity);
}

TEST(Parser, MatrixDiagonalPermutation) {
  Diagnostics Diags;
  FormulaRef M =
      parseFormulaString("(matrix ((1 0) (0 1) (1 1)))", Diags);
  ASSERT_TRUE(M) << Diags.dump();
  EXPECT_EQ(M->outSize(), 3);
  EXPECT_EQ(M->inSize(), 2);

  FormulaRef D = parseFormulaString("(diagonal (1 sqrt(2) (0, -1)))", Diags);
  ASSERT_TRUE(D) << Diags.dump();
  ASSERT_EQ(D->diagElems().size(), 3u);
  EXPECT_NEAR(D->diagElems()[1].real(), std::sqrt(2.0), 1e-15);
  EXPECT_EQ(D->diagElems()[2], Cplx(0, -1));

  FormulaRef P = parseFormulaString("(permutation (2 3 1))", Diags);
  ASSERT_TRUE(P) << Diags.dump();
  // y_i = x_{k_i - 1}: y0 = x1.
  Matrix PM = P->toMatrix();
  EXPECT_EQ(PM.at(0, 1), Cplx(1, 0));
  EXPECT_EQ(PM.at(1, 2), Cplx(1, 0));
  EXPECT_EQ(PM.at(2, 0), Cplx(1, 0));
}

TEST(Parser, ScalarConstantExpressions) {
  Diagnostics Diags;
  FormulaRef D = parseFormulaString(
      "(diagonal ((cos(2*pi/3.0), sin(2*pi/3.0)) (2*pi) -3))", Diags);
  ASSERT_TRUE(D) << Diags.dump();
  double Pi = 3.14159265358979323846;
  EXPECT_NEAR(D->diagElems()[0].real(), std::cos(2 * Pi / 3), 1e-15);
  EXPECT_NEAR(D->diagElems()[0].imag(), std::sin(2 * Pi / 3), 1e-15);
  EXPECT_NEAR(D->diagElems()[1].real(), 2 * Pi, 1e-15);
  EXPECT_EQ(D->diagElems()[2], Cplx(-3, 0));
}

TEST(Parser, WFunctionInElements) {
  Diagnostics Diags;
  FormulaRef D = parseFormulaString("(diagonal (w(4, 1) w(4, 2)))", Diags);
  ASSERT_TRUE(D) << Diags.dump();
  EXPECT_NEAR(std::abs(D->diagElems()[0] - Cplx(0, -1)), 0, 1e-15);
  EXPECT_NEAR(std::abs(D->diagElems()[1] - Cplx(-1, 0)), 0, 1e-15);
}

TEST(Parser, DefineAndUse) {
  Diagnostics Diags;
  Parser P("(define F4 (compose (tensor (F 2) (I 2)) (T 4 2) "
           "(tensor (I 2) (F 2)) (L 4 2))) (compose F4 F4)",
           Diags);
  auto Prog = P.parseProgram();
  ASSERT_TRUE(Prog) << Diags.dump();
  ASSERT_EQ(Prog->Items.size(), 1u);
  EXPECT_EQ(Prog->Items[0].Formula->inSize(), 4);
  EXPECT_TRUE(Prog->Defines.count("F4"));
}

TEST(Parser, PrintParseRoundTrip) {
  Diagnostics Diags;
  const char *Sources[] = {
      "(compose (tensor (F 2) (I 2)) (T 4 2) (tensor (I 2) (F 2)) (L 4 2))",
      "(direct-sum (F 2) (I 3) (DCT2 4))",
      "(tensor (WHT 4) (DCT4 2))",
      "(permutation (2 1 3))",
  };
  for (const char *Src : Sources) {
    FormulaRef F = parseFormulaString(Src, Diags);
    ASSERT_TRUE(F) << Diags.dump() << Src;
    FormulaRef G = parseFormulaString(F->print(), Diags);
    ASSERT_TRUE(G) << Diags.dump() << F->print();
    EXPECT_TRUE(formulaEqual(F, G)) << F->print() << " vs " << G->print();
  }
}

TEST(Parser, Directives) {
  Diagnostics Diags;
  Parser P("#datatype real\n#language fortran\n#codetype complex\n"
           "#subname mysub\n(WHT 4)",
           Diags);
  auto Prog = P.parseProgram();
  ASSERT_TRUE(Prog) << Diags.dump();
  ASSERT_EQ(Prog->Items.size(), 1u);
  EXPECT_EQ(Prog->Items[0].Dirs.Datatype, "real");
  EXPECT_EQ(Prog->Items[0].Dirs.Language, "fortran");
  EXPECT_EQ(Prog->Items[0].Dirs.CodeType, "complex");
  EXPECT_EQ(Prog->Items[0].Dirs.SubName, "mysub");
}

TEST(Parser, UnrollDirectiveAttachesToFormulas) {
  Diagnostics Diags;
  Parser P("#unroll on\n(define I2F2 (tensor (I 2) (F 2)))\n"
           "#unroll off\n(tensor (I 32) I2F2)",
           Diags);
  auto Prog = P.parseProgram();
  ASSERT_TRUE(Prog) << Diags.dump();
  ASSERT_EQ(Prog->Items.size(), 1u);
  const FormulaRef &Top = Prog->Items[0].Formula;
  ASSERT_TRUE(Top->unrollHint().has_value());
  EXPECT_FALSE(*Top->unrollHint());
  // The defined sub-formula carries "on".
  const FormulaRef &Sub = Top->child(1);
  ASSERT_TRUE(Sub->unrollHint().has_value());
  EXPECT_TRUE(*Sub->unrollHint());
}

TEST(Parser, ErrorsAreReported) {
  struct {
    const char *Src;
    const char *Why;
  } Cases[] = {
      {"(F 0)", "non-positive size"},
      {"(L 7 2)", "divisibility"},
      {"(WHT 6)", "power of two"},
      {"(compose (F 2) (F 3))", "size mismatch"},
      {"(permutation (1 1 2))", "not a permutation"},
      {"(matrix ((1 2) (3)))", "ragged rows"},
      {"(compose (F 2))", "arity"},
      {"(foo (F 2))", "user matrices take integer args"},
      {"undefined_name", "undefined symbol"},
  };
  for (const auto &C : Cases) {
    Diagnostics Diags;
    FormulaRef F = parseFormulaString(C.Src, Diags);
    EXPECT_TRUE(!F || Diags.hasErrors()) << C.Src << " (" << C.Why << ")";
  }
}

TEST(Parser, TemplateWithConditionParses) {
  Diagnostics Diags;
  auto Defs = parseTemplateString(R"(
    (template (L mn_ n_) [mn_ == n_ * n_]
      (do $i0 = 0, mn_-1
         $out($i0) = $in($i0)
       end)))",
                                  Diags);
  ASSERT_FALSE(Diags.hasErrors()) << Diags.dump();
  ASSERT_EQ(Defs.size(), 1u);
  EXPECT_TRUE(Defs[0].Condition);
  EXPECT_EQ(Defs[0].Body.size(), 3u);
  EXPECT_EQ(Defs[0].Body.front().K, tpl::TStmt::Do);
}

TEST(Parser, BuiltinTemplatesParse) {
  Diagnostics Diags;
  auto Defs = parseTemplateString(tpl::builtinTemplatesText(), Diags);
  EXPECT_FALSE(Diags.hasErrors()) << Diags.dump();
  EXPECT_GE(Defs.size(), 12u);
}

//===----------------------------------------------------------------------===//
// Expression grammar: one table per context
//
// SPL has one expression language used in four contexts: template
// [conditions], template i-code bodies, matrix/diagonal elements and the
// integer parameters of parameterized matrices. Each context admits a
// fixed subset of the grammar; these tables pin what each accepts (with
// the resulting value or tree) and the exact first diagnostic for what it
// rejects. Column numbers count from the first character of the
// expression; 0 leaves the column unchecked.
//===----------------------------------------------------------------------===//

struct Rejected {
  const char *Src;
  int Col;
  const char *Message;
};

/// Checks that \p Diags holds an error whose first message is \p R.Message,
/// reported on line 1 at column \p Base + R.Col (when R.Col is nonzero).
void expectFirstError(const Diagnostics &Diags, const Rejected &R,
                      size_t Base) {
  ASSERT_TRUE(Diags.hasErrors()) << "accepted: " << R.Src;
  const Diagnostic &D = Diags.all().front();
  EXPECT_EQ(D.Message, R.Message) << R.Src;
  if (R.Col != 0) {
    EXPECT_EQ(D.Loc.Line, 1u) << R.Src;
    EXPECT_EQ(D.Loc.Col, static_cast<unsigned>(Base + R.Col)) << R.Src;
  }
}

/// Prints a template-body expression in prefix form: "(+ a b)", "(neg a)",
/// "$in[e]" for vector references and "W(a b)" for intrinsic calls.
std::string printTExpr(const tpl::TExprRef &E) {
  auto Join = [](const std::vector<tpl::TExprRef> &Args) {
    std::string Out;
    for (const tpl::TExprRef &A : Args)
      Out += (Out.empty() ? "" : " ") + printTExpr(A);
    return Out;
  };
  auto Num = [](double V) {
    std::ostringstream SS;
    SS << V;
    return SS.str();
  };
  switch (E->K) {
  case tpl::TExpr::Num:
    if (E->NumVal.imag() != 0)
      return "(" + Num(E->NumVal.real()) + "," + Num(E->NumVal.imag()) + ")";
    return Num(E->NumVal.real());
  case tpl::TExpr::Sym:
    return E->Name;
  case tpl::TExpr::VecRef:
    return E->Name + "[" + printTExpr(E->Args[0]) + "]";
  case tpl::TExpr::Call:
    return E->Name + "(" + Join(E->Args) + ")";
  case tpl::TExpr::Add:
    return "(+ " + Join(E->Args) + ")";
  case tpl::TExpr::Sub:
    return "(- " + Join(E->Args) + ")";
  case tpl::TExpr::Mul:
    return "(* " + Join(E->Args) + ")";
  case tpl::TExpr::Div:
    return "(/ " + Join(E->Args) + ")";
  case tpl::TExpr::Mod:
    return "(% " + Join(E->Args) + ")";
  case tpl::TExpr::Neg:
    return "(neg " + Join(E->Args) + ")";
  default:
    return "<kind " + std::to_string(static_cast<int>(E->K)) + ">";
  }
}

const char *const CondPrefix = "(template (PQ n_) [";
const char *const CondSuffix = "] ($out(0) = $in(0)))";

std::optional<std::int64_t> lookupForTests(const std::string &Name) {
  if (Name == "n_")
    return 6;
  if (Name == "m_")
    return 4;
  if (Name == "A_.in_size")
    return 8;
  return std::nullopt;
}

/// Parses \p Cond as a template condition and evaluates it with n_ = 6,
/// m_ = 4 and A_.in_size = 8.
std::optional<std::int64_t> evalCondition(const std::string &Cond,
                                          Diagnostics &Diags) {
  auto Defs = parseTemplateString(CondPrefix + Cond + CondSuffix, Diags);
  if (Defs.size() != 1)
    return std::nullopt;
  icode::IntFault Fault;
  auto V = icode::lowerInt(
      *Defs[0].Condition,
      [](const tpl::TExpr &Name) -> std::optional<icode::IntValue> {
        auto V = lookupForTests(Name.Name);
        return V ? std::optional(icode::IntValue::constant(*V)) : std::nullopt;
      },
      Fault);
  return V ? std::optional(V->Lo) : std::nullopt;
}

TEST(ExprGrammar, Conditions) {
  const struct {
    const char *Src;
    std::optional<std::int64_t> Value; // nullopt: evaluation fails.
  } Accepted[] = {
      {"n_ == 6", 1},
      {"n_ * 2 + 1", 13},
      {"1 + 2 * 3", 7},
      {"(1 + 2) * 3", 9},
      {"10 - 4 - 3", 3},
      {"17 / 5", 3},
      {"-17 / 5", -3},
      {"17 % 5", 2},
      {"-n_", -6},
      {"- -n_", 6},
      {"-n_ * 2", -12},
      {"-(n_ - 8)", 2},
      {"!n_", 0},
      {"!0", 1},
      {"!!n_", 1},
      {"!n_ == 0", 1},
      {"n_ > 2 && n_ % 2 == 0", 1},
      {"n_ < 2 || m_ == 4", 1},
      {"0 && 1 || 1", 1},
      {"1 || 0 && 0", 1},
      {"1 + 2 == 3", 1},
      {"n_ != 6", 0},
      {"n_ <= 6", 1},
      {"n_ >= 7", 0},
      {"n_ < m_", 0},
      {"A_.in_size == 2 * m_", 1},
      {"((n_))", 6},
      {"n_ / 0", std::nullopt},
      {"n_ % (m_ - 4)", std::nullopt},
      {"unbound_ + 1", std::nullopt},
      {"0 && unbound_", 0},
      {"1 || unbound_", 1},
      // 64-bit values: literals are exact, and an overflow does not match
      // rather than wrapping (6 * 2^62 would wrap to -2^63).
      {"9007199254740993 - 9007199254740992", 1},
      {"n_ * 4611686018427387904 > 0", std::nullopt},
      {"n_ * 4611686018427387904 <= 0", std::nullopt},
      {"0 && n_ * 4611686018427387904", 0},
      {"-(-9223372036854775807 - 1)", std::nullopt},
      {"(-9223372036854775807 - 1) / -1", std::nullopt},
      {"(-9223372036854775807 - 1) % -1", 0},
      {"9223372036854775807 + 1 > 0", std::nullopt},
  };
  for (const auto &C : Accepted) {
    Diagnostics Diags;
    EXPECT_EQ(evalCondition(C.Src, Diags), C.Value) << C.Src;
    EXPECT_FALSE(Diags.hasErrors()) << C.Src << "\n" << Diags.dump();
  }

  const Rejected Rejects[] = {
      {"n_ == ", 7,
       "expected an integer, a pattern variable, or '(' in condition"},
      {"1.5 < n_", 1,
       "expected an integer, a pattern variable, or '(' in condition"},
      {"n_ < 2 < 3", 8,
       "expected ']' closing the template condition, found '<'"},
      {"(n_ == 2", 9, "expected ')' in condition, found ']'"},
      {"(1, 2)", 3, "expected ')' in condition, found ','"},
      {"sqrt(n_)", 5,
       "expected ']' closing the template condition, found '('"},
      {"$in(0)", 4, "expected ']' closing the template condition, found '('"},
      {"n_ = 2", 4, "expected ']' closing the template condition, found '='"},
      {"n_ +", 5,
       "expected an integer, a pattern variable, or '(' in condition"},
      {"&& n_", 1,
       "expected an integer, a pattern variable, or '(' in condition"},
  };
  for (const Rejected &R : Rejects) {
    Diagnostics Diags;
    parseTemplateString(CondPrefix + std::string(R.Src) + CondSuffix, Diags);
    expectFirstError(Diags, R, std::strlen(CondPrefix));
  }
}

const char *const BodyPrefix = "(template (PQ n_) ($out(0) = ";

TEST(ExprGrammar, ICodeBodies) {
  const struct {
    const char *Src;
    const char *Tree;
  } Accepted[] = {
      {"$in(0) + 1", "(+ $in[0] 1)"},
      {"1 + 2 * 3", "(+ 1 (* 2 3))"},
      {"(1 + 2) * 3", "(* (+ 1 2) 3)"},
      {"10 - 4 - 3", "(- (- 10 4) 3)"},
      {"n_ / 2 % 3", "(% (/ n_ 2) 3)"},
      {"-$in(1)", "(neg $in[1])"},
      {"- -2", "(neg (neg 2))"},
      {"-2 * 3", "(* (neg 2) 3)"},
      {"W(8 $i0) * $in($i0)", "(* W(8 $i0) $in[$i0])"},
      {"TW(mn_, n_, $i0)", "TW(mn_ n_ $i0)"},
      {"A_.out_size * 2", "(* A_.out_size 2)"},
      {"(0.5, -0.25)", "(0.5,-0.25)"},
      {"(-(1), 2)", "(-1,2)"},
      {"2.5e-1", "0.25"},
      {"$t0($i0 * 2 + 1)", "$t0[(+ (* $i0 2) 1)]"},
      {"$f0", "$f0"},
      {"((n_))", "n_"},
  };
  for (const auto &C : Accepted) {
    Diagnostics Diags;
    auto Defs =
        parseTemplateString(BodyPrefix + std::string(C.Src) + "))", Diags);
    ASSERT_EQ(Defs.size(), 1u) << C.Src << "\n" << Diags.dump();
    ASSERT_EQ(Defs[0].Body.size(), 1u) << C.Src;
    EXPECT_EQ(printTExpr(Defs[0].Body[0].Rhs), C.Tree) << C.Src;
  }

  const Rejected Rejects[] = {
      {"$in(0) < 1", 8,
       "expected a statement (do / end / assignment / formula call)"},
      {"1 && 2", 3,
       "expected a statement (do / end / assignment / formula call)"},
      {"!$in(0)", 1, "expected an expression"},
      {"2 +", 4, "expected an expression"},
      {"(n_, 0)", 1, "complex constants must have constant components"},
      {"(1 + 2, 0)", 1, "complex constants must have constant components"},
      {"(0, pi)", 1, "complex constants must have constant components"},
      {"$in(0 1)", 7, "expected ')' closing the subscript, found '1'"},
      {"(1 2)", 4,
       "expected ')' closing a parenthesized expression, found '2'"},
      {"(1, 2 3)", 7, "expected ')' closing a complex constant, found '3'"},
  };
  for (const Rejected &R : Rejects) {
    Diagnostics Diags;
    parseTemplateString(BodyPrefix + std::string(R.Src) + "))", Diags);
    expectFirstError(Diags, R, std::strlen(BodyPrefix));
  }
}

TEST(ExprGrammar, ConstantElements) {
  const double Pi = 3.14159265358979323846;
  const struct {
    const char *Src;
    std::vector<Cplx> Values;
  } Accepted[] = {
      {"2", {Cplx(2, 0)}},
      {"-3", {Cplx(-3, 0)}},
      {"- -3", {Cplx(3, 0)}},
      {"1.5e1", {Cplx(15, 0)}},
      {"sqrt(4)", {Cplx(2, 0)}},
      {"(1 + 2 * 3)", {Cplx(7, 0)}},
      {"((1 + 2) * 3)", {Cplx(9, 0)}},
      {"(10 - 4 - 3)", {Cplx(3, 0)}},
      {"(7 / 2)", {Cplx(3.5, 0)}},
      {"(-(1 - 4))", {Cplx(3, 0)}},
      {"-(1 - 4)", {Cplx(3, 0)}},
      {"(-2 * -3)", {Cplx(6, 0)}},
      {"pi", {Cplx(Pi, 0)}},
      {"PI", {Cplx(Pi, 0)}},
      {"(cos(pi), sin(0))", {Cplx(-1, 0)}},
      {"(0, -1)", {Cplx(0, -1)}},
      {"(1 + 1, 2 * 2)", {Cplx(2, 4)}},
      {"w(4 2)", {Cplx(-1, 0)}},
      {"w(4, 2)", {Cplx(-1, 0)}},
      {"(2 * w(4 2))", {Cplx(-2, 0)}},
      {"exp(0)", {Cplx(1, 0)}},
      {"(sqrt(2)/2)", {Cplx(std::sqrt(2.0) / 2, 0)}},
      {"sqrt(1 + 3)", {Cplx(2, 0)}},
      {"sqrt(4 ,)", {Cplx(2, 0)}},
      {"1 -1 (0, 1)", {Cplx(1, 0), Cplx(-1, 0), Cplx(0, 1)}},
  };
  for (const auto &C : Accepted) {
    Diagnostics Diags;
    FormulaRef D = parseFormulaString(
        "(diagonal (" + std::string(C.Src) + "))", Diags);
    ASSERT_TRUE(D) << C.Src << "\n" << Diags.dump();
    ASSERT_EQ(D->diagElems().size(), C.Values.size()) << C.Src;
    for (size_t I = 0; I != C.Values.size(); ++I)
      EXPECT_LT(std::abs(D->diagElems()[I] - C.Values[I]), 1e-15) << C.Src;
  }

  // Matrix rows use the same element rule.
  Diagnostics MDiags;
  FormulaRef M =
      parseFormulaString("(matrix ((1 (2*3)) (-1 sqrt(4))))", MDiags);
  ASSERT_TRUE(M) << MDiags.dump();
  EXPECT_EQ(M->toMatrix().at(0, 1), Cplx(6, 0));
  EXPECT_EQ(M->toMatrix().at(1, 1), Cplx(2, 0));

  const Rejected Rejects[] = {
      {"(1/0)", 0, "division by zero in constant expression"},
      {"((0, 1), 2)", 0, "components of a complex constant must be real"},
      {"foo", 1, "unknown scalar constant 'foo'"},
      {"n_", 1, "unknown scalar constant 'n_'"},
      {"foo(1)", 1, "unknown scalar function 'foo' or wrong number of "
                    "arguments"},
      {"sqrt(1 2)", 1, "unknown scalar function 'sqrt' or wrong number of "
                       "arguments"},
      {"$in(0)", 1, "unknown scalar function '$in' or wrong number of "
                    "arguments"},
      {"1 + 2", 3, "expected a scalar constant"},
      {"sqrt(2)/2", 8, "expected a scalar constant"},
      {"!1", 1, "expected a scalar constant"},
      {"pi.x", 3, "expected a scalar constant"},
      {"(5 % 2)", 4,
       "expected ')' closing a parenthesized constant, found '%'"},
      {"(1 2)", 4,
       "expected ')' closing a parenthesized constant, found '2'"},
      {"(1, 2 3)", 7, "expected ')' closing a complex constant, found '3'"},
  };
  for (const Rejected &R : Rejects) {
    Diagnostics Diags;
    parseFormulaString("(diagonal (" + std::string(R.Src) + "))", Diags);
    expectFirstError(Diags, R, std::strlen("(diagonal ("));
  }
}

TEST(ExprGrammar, IntegerParameters) {
  const struct {
    const char *Src;
    bool PatternMode;
    const char *Printed;
  } Accepted[] = {
      {"(F 8)", false, "(F 8)"},
      {"(L 16 4)", false, "(L 16 4)"},
      {"(HAARB 8 2 0)", false, "(HAARB 8 2 0)"},
      {"(L mn_ n_)", true, "(L mn_ n_)"},
      {"(T 8 n_)", true, "(T 8 n_)"},
  };
  for (const auto &C : Accepted) {
    Diagnostics Diags;
    FormulaRef F = parseFormulaString(C.Src, Diags, C.PatternMode);
    ASSERT_TRUE(F) << C.Src << "\n" << Diags.dump();
    EXPECT_EQ(F->print(), C.Printed);
  }

  const Rejected Rejects[] = {
      {"(F 2.0)", 4, "expected an integer parameter"},
      {"(F -1)", 4, "expected an integer parameter"},
      {"(J 3 -1)", 6, "expected an integer parameter"},
      {"(F N)", 4, "expected an integer parameter"},
      {"(F)", 3, "expected an integer parameter"},
      {"(L 8 8/2)", 7, "expected ')', found '/'"},
      {"(F 4 + 4)", 6, "expected ')', found '+'"},
      {"(F n_)", 4,
       "pattern variables are only allowed inside template patterns"},
      {"(foo (F 2))", 0, "expected an integer parameter"},
  };
  for (const Rejected &R : Rejects) {
    Diagnostics Diags;
    parseFormulaString(R.Src, Diags);
    expectFirstError(Diags, R, 0);
  }
}

/// A random integer expression over + - * unary minus and parentheses, with
/// its value, nullopt when a step overflows int64. Depth <= 4 with
/// single-digit literals keeps every value far inside both int64 and the
/// exactly representable doubles; with \p Near2to62 a quarter of the
/// literals lie near 2^62 instead, so that some expressions overflow. Prec
/// is the binding strength of the outermost operator (3 for an atom, a
/// unary minus or a parenthesized expression). Big is set when a literal
/// near 2^62 occurs.
struct RandomIntExpr {
  std::string Text;
  std::optional<std::int64_t> Value = 0;
  int Prec = 3;
  bool Big = false;
};

RandomIntExpr randomIntExpr(std::mt19937 &Gen, int Depth,
                            bool Near2to62 = false) {
  auto Pick = [&Gen](int N) {
    return std::uniform_int_distribution<int>(0, N - 1)(Gen);
  };
  // Parenthesizes \p E when its operator binds looser than \p MinPrec, and
  // sometimes when it need not.
  auto Operand = [&](const RandomIntExpr &E, int MinPrec) {
    return E.Prec < MinPrec || Pick(4) == 0 ? "(" + E.Text + ")" : E.Text;
  };
  if (Depth == 0 || Pick(4) == 0) {
    if (Near2to62 && Pick(4) == 0) {
      const std::int64_t Near[] = {std::int64_t(1) << 62,
                                   (std::int64_t(1) << 62) - 1,
                                   (std::int64_t(1) << 62) + 1,
                                   3037000499}; // floor(sqrt(2^63))
      std::int64_t V = Near[Pick(4)];
      return {std::to_string(V), V, 3, true};
    }
    int V = Pick(10);
    return {std::to_string(V), V, 3};
  }
  if (Pick(4) == 0) {
    RandomIntExpr E = randomIntExpr(Gen, Depth - 1, Near2to62);
    std::optional<std::int64_t> V;
    std::int64_t Neg = 0;
    if (E.Value && !__builtin_sub_overflow(0, *E.Value, &Neg))
      V = Neg;
    return {"-" + Operand(E, 3), V, 3, E.Big};
  }
  RandomIntExpr L = randomIntExpr(Gen, Depth - 1, Near2to62);
  RandomIntExpr R = randomIntExpr(Gen, Depth - 1, Near2to62);
  const char *Space = Pick(2) ? " " : "";
  int Op = Pick(3);
  int Prec = Op == 2 ? 2 : 1;
  // Left operands may share the operator's precedence (left association);
  // right operands must bind tighter.
  std::string Text = Operand(L, Prec) + Space + "+-*"[Op] + Space +
                     Operand(R, Prec + 1);
  std::int64_t V = 0;
  bool Overflow = !L.Value || !R.Value ||
                  (Op == 0   ? __builtin_add_overflow(*L.Value, *R.Value, &V)
                   : Op == 1 ? __builtin_sub_overflow(*L.Value, *R.Value, &V)
                             : __builtin_mul_overflow(*L.Value, *R.Value, &V));
  return {Text, Overflow ? std::nullopt : std::optional(V), Prec,
          L.Big || R.Big};
}

/// Lowers a template whose only loop runs from \p Bound to \p Bound and
/// returns the lower bound the expander computed.
std::optional<std::int64_t> loweredLoopBound(const std::string &Bound,
                                             Diagnostics &Diags) {
  auto Defs = parseTemplateString("(template (PQ n_) (do $i0 = " + Bound +
                                      ", " + Bound +
                                      "\n $out(0) = $in(0)\n end))",
                                  Diags);
  if (Defs.size() != 1)
    return std::nullopt;
  tpl::TemplateRegistry Registry = tpl::TemplateRegistry::withBuiltins();
  Registry.addAll(std::move(Defs));
  lower::Expander Exp(Registry, Diags);
  auto Prog = Exp.expand(parseFormulaString("(PQ 1)", Diags),
                         lower::ExpandOptions());
  if (!Prog)
    return std::nullopt;
  for (const icode::Instr &I : Prog->Body)
    if (I.Opcode == icode::Op::Loop)
      return I.Lo;
  return std::nullopt;
}

TEST(ExprGrammar, RandomIntegerExpressionsAgreeAcrossContexts) {
  // An overflow makes the condition not match and is an error in an i-code
  // body and in an integer parameter.
  std::mt19937 Gen(20011);
  int Overflows = 0;
  for (int Trial = 0; Trial != 300; ++Trial) {
    RandomIntExpr E = randomIntExpr(Gen, 4, /*Near2to62=*/true);
    SCOPED_TRACE(E.Text);
    Overflows += !E.Value;

    Diagnostics CDiags;
    EXPECT_EQ(evalCondition(E.Text, CDiags), E.Value) << CDiags.dump();
    EXPECT_FALSE(CDiags.hasErrors()) << CDiags.dump();

    Diagnostics LDiags;
    EXPECT_EQ(loweredLoopBound(E.Text, LDiags), E.Value) << LDiags.dump();
    if (!E.Value)
      expectFirstError(LDiags,
                       {E.Text.c_str(), 0,
                        "integer overflow in integer expression"},
                       0);

    Diagnostics PDiags;
    FormulaRef F = parseFormulaString("(J (" + E.Text + "))", PDiags);
    if (E.Value)
      EXPECT_EQ(F ? F->print() : PDiags.dump(),
                "(J " + std::to_string(*E.Value) + ")");
    else
      expectFirstError(PDiags,
                       {E.Text.c_str(), 0,
                        "integer overflow in constant expression"},
                       0);

    if (E.Big) // Elements are doubles, exact only up to 2^53.
      continue;
    Diagnostics EDiags;
    FormulaRef D = parseFormulaString("(diagonal ((" + E.Text + ")))", EDiags);
    ASSERT_TRUE(D) << EDiags.dump();
    EXPECT_EQ(D->diagElems()[0], Cplx(static_cast<double>(*E.Value), 0));
  }
  EXPECT_GT(Overflows, 20);
}

TEST(ExprGrammar, ParenthesizedIntegerParameters) {
  const struct {
    const char *Src;
    const char *Printed;
  } Accepted[] = {
      {"(L 8 (8/2))", "(L 8 4)"},
      {"(L (2*8) (8/2))", "(L 16 4)"},
      {"(F ((2 + 2) * 2))", "(F 8)"},
      {"(F (9 % 5))", "(F 4)"},
      {"(F (7 / 2))", "(F 3)"},
      {"(J 3 (-1))", "(J 3 -1)"},
      {"(J 9223372036854775806)", "(J 9223372036854775806)"},
      {"(J (-9223372036854775807 - 1))", "(J -9223372036854775808)"},
  };
  for (const auto &C : Accepted) {
    Diagnostics Diags;
    FormulaRef F = parseFormulaString(C.Src, Diags);
    ASSERT_TRUE(F) << C.Src << "\n" << Diags.dump();
    EXPECT_EQ(F->print(), C.Printed);
  }

  const Rejected Rejects[] = {
      {"(F (1/0))", 4, "division by zero in constant expression"},
      {"(F (4 % 0))", 4, "division by zero in constant expression"},
      // An overflow is reported at its operator; 2^62 * 4 used to wrap
      // to 0 and read as a non-positive size.
      {"(I (4611686018427387904 * 4))", 25,
       "integer overflow in constant expression"},
      {"(I (-(-9223372036854775807 - 1)))", 5,
       "integer overflow in constant expression"},
      {"(I ((-9223372036854775807 - 1) / -1))", 32,
       "integer overflow in constant expression"},
      {"(F (2.5))", 5, "expected an integer parameter"},
      {"(F (2 * N))", 9, "expected an integer parameter"},
      {"(F (2, 3))", 6,
       "expected ')' closing a parenthesized expression, found ','"},
      {"(F (2 < 3))", 7,
       "expected ')' closing a parenthesized expression, found '<'"},
  };
  for (const Rejected &R : Rejects) {
    Diagnostics Diags;
    parseFormulaString(R.Src, Diags);
    expectFirstError(Diags, R, 0);
  }
  // Pattern variables stay bare atoms: a parameter expression is constant.
  Diagnostics Diags;
  parseFormulaString("(L mn_ (2 * n_))", Diags, /*PatternMode=*/true);
  expectFirstError(Diags, {"(L mn_ (2 * n_))", 13,
                           "expected an integer parameter"}, 0);

  // Integer parameters fold the same arithmetic as the other contexts.
  std::mt19937 Gen(20012);
  for (int Trial = 0; Trial != 100; ++Trial) {
    RandomIntExpr E = randomIntExpr(Gen, 4);
    Diagnostics PDiags;
    FormulaRef F = parseFormulaString("(J (" + E.Text + "))", PDiags);
    ASSERT_TRUE(F) << E.Text << "\n" << PDiags.dump();
    EXPECT_EQ(F->print(), "(J " + std::to_string(*E.Value) + ")") << E.Text;
  }
}

/// The fenced ```lisp blocks of \p Path, in order.
std::vector<std::string> lispBlocks(const std::string &Path) {
  std::ifstream In(Path);
  std::vector<std::string> Blocks;
  std::string Line;
  bool Inside = false;
  while (std::getline(In, Line)) {
    if (!Inside && Line == "```lisp") {
      Inside = true;
      Blocks.emplace_back();
    } else if (Inside && startsWith(Line, "```")) {
      Inside = false;
    } else if (Inside) {
      Blocks.back() += Line + "\n";
    }
  }
  return Blocks;
}

TEST(DocExamples, EveryLispBlockParses) {
  size_t Count = 0;
  for (const char *Doc : {"README.md", "docs/LANGUAGE.md"}) {
    std::vector<std::string> Blocks =
        lispBlocks(std::string(SPL_SOURCE_DIR) + "/" + Doc);
    EXPECT_FALSE(Blocks.empty()) << Doc;
    for (const std::string &Block : Blocks) {
      Diagnostics Diags;
      Parser P(Block, Diags);
      EXPECT_TRUE(P.parseProgram()) << Doc << ":\n"
                                    << Block << Diags.dump();
      ++Count;
    }
  }
  EXPECT_GE(Count, 7u);
}

} // namespace

