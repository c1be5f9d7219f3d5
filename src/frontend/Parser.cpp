//===- frontend/Parser.cpp - SPL parser ------------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include "frontend/ScalarExpr.h"
#include "icode/ICode.h"
#include "ir/Builder.h"
#include "support/StrUtil.h"

#include <cctype>
#include <climits>
#include <sstream>

using namespace spl;

namespace {

bool isPatternVarName(const std::string &S) {
  return S.size() >= 2 && S.back() == '_';
}

bool isIntVarName(const std::string &S) {
  return isPatternVarName(S) &&
         std::islower(static_cast<unsigned char>(S.front()));
}

bool isFormulaVarName(const std::string &S) {
  return isPatternVarName(S) &&
         std::isupper(static_cast<unsigned char>(S.front()));
}

/// Splits a directive line into whitespace-separated words.
std::vector<std::string> splitWords(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream SS(S);
  std::string W;
  while (SS >> W)
    Out.push_back(W);
  return Out;
}

} // namespace

Parser::Parser(const std::string &Source, Diagnostics &Diags)
    : Diags(Diags), Toks(lex(Source, Diags)) {}

//===----------------------------------------------------------------------===//
// Token helpers
//===----------------------------------------------------------------------===//

const Token &Parser::peek(size_t Ahead) const {
  size_t I = Pos + Ahead;
  if (I >= Toks.size())
    I = Toks.size() - 1; // Eof sentinel.
  return Toks[I];
}

Token Parser::take() {
  Token T = cur();
  if (Pos + 1 < Toks.size())
    ++Pos;
  return T;
}

bool Parser::consumeIf(Tok K) {
  if (!cur().is(K))
    return false;
  take();
  return true;
}

bool Parser::expect(Tok K, const char *What) {
  if (consumeIf(K))
    return true;
  Diags.error(cur().Loc, std::string("expected ") + What + ", found '" +
                             (cur().is(Tok::Eof) ? "<eof>" : cur().Text) +
                             "'");
  return false;
}

void Parser::error(const char *Message) { Diags.error(cur().Loc, Message); }

void Parser::skipToCloseParen() {
  int Depth = 0;
  while (!cur().is(Tok::Eof)) {
    if (cur().is(Tok::LParen))
      ++Depth;
    if (cur().is(Tok::RParen)) {
      if (Depth == 0) {
        take();
        return;
      }
      --Depth;
    }
    take();
  }
}

//===----------------------------------------------------------------------===//
// Program structure
//===----------------------------------------------------------------------===//

void Parser::handleDirective(const Token &T) {
  std::vector<std::string> Words = splitWords(T.Text);
  if (Words.empty()) {
    Diags.warning(T.Loc, "empty compiler directive");
    return;
  }
  std::string Key = toLower(Words[0]);
  std::string Arg = Words.size() > 1 ? toLower(Words[1]) : "";
  if (Key == "subname") {
    if (Words.size() != 2) {
      Diags.error(T.Loc, "#subname takes exactly one argument");
      return;
    }
    Dirs.SubName = Words[1];
    return;
  }
  if (Key == "datatype") {
    if (Arg != "real" && Arg != "complex") {
      Diags.error(T.Loc, "#datatype must be 'real' or 'complex'");
      return;
    }
    Dirs.Datatype = Arg;
    return;
  }
  if (Key == "codetype") {
    if (Arg != "real" && Arg != "complex") {
      Diags.error(T.Loc, "#codetype must be 'real' or 'complex'");
      return;
    }
    Dirs.CodeType = Arg;
    return;
  }
  if (Key == "language") {
    if (Arg != "c" && Arg != "fortran") {
      Diags.error(T.Loc, "#language must be 'c' or 'fortran'");
      return;
    }
    Dirs.Language = Arg;
    return;
  }
  if (Key == "unroll") {
    if (Arg == "on")
      Dirs.Unroll = true;
    else if (Arg == "off")
      Dirs.Unroll = false;
    else
      Diags.error(T.Loc, "#unroll must be 'on' or 'off'");
    return;
  }
  Diags.warning(T.Loc, "unknown compiler directive '" + Words[0] + "'");
}

std::optional<SplProgram> Parser::parseProgram() {
  SplProgram Prog;
  while (!cur().is(Tok::Eof)) {
    if (cur().is(Tok::Directive)) {
      handleDirective(take());
      continue;
    }
    if (!cur().is(Tok::LParen)) {
      error("expected '(' or a compiler directive at top level");
      take();
      continue;
    }

    const Token &Head = peek(1);
    if (Head.isSymbol("define")) {
      SourceLoc Loc = cur().Loc;
      take(); // (
      take(); // define
      if (!cur().is(Tok::Symbol)) {
        error("expected a name after 'define'");
        skipToCloseParen();
        continue;
      }
      std::string Name = take().Text;
      FormulaRef F = parseFormula(/*PatternMode=*/false);
      if (!F || !expect(Tok::RParen, "')' closing define")) {
        if (!F)
          skipToCloseParen();
        continue;
      }
      if (Dirs.Unroll)
        F = withUnrollHint(F, *Dirs.Unroll);
      if (Prog.Defines.count(Name))
        Diags.warning(Loc, "redefinition of '" + Name + "'");
      Prog.Defines[Name] = F;
      Defines[Name] = F;
      continue;
    }

    if (Head.isSymbol("template")) {
      SourceLoc Loc = cur().Loc;
      take(); // (
      take(); // template
      auto Def = parseTemplate(Loc);
      if (!Def) {
        skipToCloseParen();
        continue;
      }
      Prog.Templates.push_back(std::move(*Def));
      continue;
    }

    FormulaRef F = parseFormula(/*PatternMode=*/false);
    if (!F) {
      skipToCloseParen();
      continue;
    }
    if (Dirs.Unroll)
      F = withUnrollHint(F, *Dirs.Unroll);
    Prog.Items.push_back({F, Dirs});
  }
  if (Diags.hasErrors())
    return std::nullopt;
  return Prog;
}

FormulaRef Parser::parseSingleFormula(bool PatternMode) {
  FormulaRef F = parseFormula(PatternMode);
  if (Diags.hasErrors())
    return nullptr;
  return F;
}

//===----------------------------------------------------------------------===//
// Formulas
//===----------------------------------------------------------------------===//

FormulaRef Parser::parseFormula(bool PatternMode) {
  if (cur().is(Tok::LParen))
    return parseParenFormula(PatternMode);

  if (cur().is(Tok::Symbol)) {
    Token T = take();
    if (PatternMode && isFormulaVarName(T.Text))
      return makePatFormula(T.Text, T.Loc, &Diags);
    auto It = Defines.find(T.Text);
    if (It != Defines.end())
      return It->second;
    Diags.error(T.Loc, "undefined symbol '" + T.Text + "'" +
                           (PatternMode ? " (formula pattern variables must "
                                          "start with an upper-case letter "
                                          "and end with '_')"
                                        : ""));
    return nullptr;
  }

  error("expected a formula");
  return nullptr;
}

std::optional<IntArg> Parser::parseIntArg(bool PatternMode) {
  if (cur().is(Tok::Symbol) && isIntVarName(cur().Text)) {
    if (!PatternMode) {
      error("pattern variables are only allowed inside template patterns");
      return std::nullopt;
    }
    return IntArg(take().Text);
  }
  // Otherwise a literal or a parenthesized integer expression. Parameters
  // are whitespace-separated, so a bare '-' is no parameter: "(J 3 -1)"
  // must not read as (J 2). A formula in its place, "(foo (F 2))", is
  // reported at its '('.
  SourceLoc Loc = cur().Loc;
  if (cur().is(Tok::LParen) && peek(1).is(Tok::Symbol)) {
    error("expected an integer parameter");
    return std::nullopt;
  }
  tpl::TExprRef E = parsePrimary(ExprContext::IntParam);
  if (!E)
    return std::nullopt;
  icode::IntFault Fault;
  std::optional<icode::IntValue> V = icode::lowerInt(*E, {}, Fault);
  if (!V) {
    if (Fault.Overflow)
      Diags.error(Fault.Loc, "integer overflow in constant expression");
    else
      Diags.error(Loc, "division by zero in constant expression");
    return std::nullopt;
  }
  return IntArg(V->Lo);
}

bool Parser::parseFormulaList(bool PatternMode, std::vector<FormulaRef> &Out) {
  while (!cur().is(Tok::RParen) && !cur().is(Tok::Eof)) {
    FormulaRef F = parseFormula(PatternMode);
    if (!F)
      return false;
    Out.push_back(std::move(F));
  }
  return true;
}

FormulaRef Parser::parseParenFormula(bool PatternMode) {
  SourceLoc Loc = cur().Loc;
  take(); // (
  if (!cur().is(Tok::Symbol)) {
    error("expected an operator or matrix name after '('");
    skipToCloseParen();
    return nullptr;
  }
  Token Head = take();
  const std::string &Name = Head.Text;

  auto CloseParen = [this]() -> bool {
    return expect(Tok::RParen, "')'");
  };

  // One-parameter square matrices.
  if (Name == "I" || Name == "F" || Name == "WHT" || Name == "DCT2" ||
      Name == "DCT4" || Name == "S") {
    auto N = parseIntArg(PatternMode);
    if (!N || !CloseParen())
      return nullptr;
    if (!N->isVar() && N->Value <= 0) {
      Diags.error(Loc, "matrix size must be positive");
      return nullptr;
    }
    if (Name == "I")
      return makeIdentity(*N, Loc, &Diags);
    if (Name == "F")
      return makeDFT(*N, Loc, &Diags);
    if (Name == "WHT") {
      if (!N->isVar() && (N->Value & (N->Value - 1)) != 0) {
        Diags.error(Loc, "WHT size must be a power of two");
        return nullptr;
      }
      return makeWHT(*N, Loc, &Diags);
    }
    if (Name == "DCT2")
      return makeDCT2(*N, Loc, &Diags);
    if (Name == "S")
      return makeSplit(*N, Loc, &Diags);
    return makeDCT4(*N, Loc, &Diags);
  }

  // Two-parameter matrices: (L mn n) and (T mn n).
  if (Name == "L" || Name == "T") {
    auto MN = parseIntArg(PatternMode);
    if (!MN)
      return nullptr;
    auto N = parseIntArg(PatternMode);
    if (!N || !CloseParen())
      return nullptr;
    if (!MN->isVar() && !N->isVar()) {
      if (MN->Value <= 0 || N->Value <= 0 || MN->Value % N->Value != 0) {
        Diags.error(Loc, std::string("(") + Name +
                             " mn n) requires positive parameters with "
                             "n dividing mn");
        return nullptr;
      }
    }
    return Name == "L" ? makeStride(*MN, *N, Loc, &Diags)
                       : makeTwiddle(*MN, *N, Loc, &Diags);
  }

  // Operators.
  if (Name == "compose" || Name == "tensor" || Name == "direct-sum") {
    std::vector<FormulaRef> Fs;
    if (!parseFormulaList(PatternMode, Fs))
      return nullptr;
    if (!CloseParen())
      return nullptr;
    if (Fs.size() < 2) {
      Diags.error(Loc, std::string("'") + Name +
                           "' needs at least two operands");
      return nullptr;
    }
    if (Name == "compose") {
      // Validate neighbouring sizes (right-to-left association).
      for (size_t I = 0; I + 1 != Fs.size(); ++I) {
        std::int64_t In = Fs[I]->inSize(), Out = Fs[I + 1]->outSize();
        if (In >= 0 && Out >= 0 && In != Out) {
          Diags.error(Loc, "compose size mismatch: operand " +
                               std::to_string(I + 1) + " has in_size " +
                               std::to_string(In) + " but operand " +
                               std::to_string(I + 2) + " has out_size " +
                               std::to_string(Out));
          return nullptr;
        }
      }
      return makeCompose(std::move(Fs), Loc, &Diags);
    }
    if (Name == "tensor")
      return makeTensor(std::move(Fs), Loc, &Diags);
    return makeDirectSum(std::move(Fs), Loc, &Diags);
  }

  if (Name == "realify") {
    std::vector<FormulaRef> Fs;
    if (!parseFormulaList(PatternMode, Fs) || !CloseParen())
      return nullptr;
    if (Fs.size() != 1) {
      Diags.error(Loc, "'realify' takes exactly one operand");
      return nullptr;
    }
    return makeRealify(std::move(Fs[0]), Loc, &Diags);
  }

  if (Name == "matrix")
    return parseMatrixForm(Loc);
  if (Name == "diagonal")
    return parseDiagonalForm(Loc);
  if (Name == "permutation")
    return parsePermutationForm(Loc);

  if (Name == "define" || Name == "template") {
    Diags.error(Loc, std::string("'") + Name + "' is only allowed at the "
                                               "top level of a program");
    skipToCloseParen();
    return nullptr;
  }

  // Anything else is a user-defined parameterized matrix (its semantics must
  // come from a template); it takes integer parameters only.
  std::vector<IntArg> Params;
  while (!cur().is(Tok::RParen) && !cur().is(Tok::Eof)) {
    auto P = parseIntArg(PatternMode);
    if (!P)
      return nullptr;
    Params.push_back(*P);
  }
  if (!CloseParen())
    return nullptr;
  return makeUserParam(Name, std::move(Params), Loc, &Diags);
}

FormulaRef Parser::parseMatrixForm(SourceLoc Loc) {
  if (!expect(Tok::LParen, "'(' starting the matrix row list"))
    return nullptr;
  std::vector<std::vector<Cplx>> Rows;
  while (!cur().is(Tok::RParen) && !cur().is(Tok::Eof)) {
    if (!expect(Tok::LParen, "'(' starting a matrix row"))
      return nullptr;
    std::vector<Cplx> Row;
    while (!cur().is(Tok::RParen) && !cur().is(Tok::Eof)) {
      auto E = parseElement();
      if (!E)
        return nullptr;
      Row.push_back(*E);
    }
    if (!expect(Tok::RParen, "')' closing a matrix row"))
      return nullptr;
    if (Row.empty()) {
      Diags.error(Loc, "matrix rows must be nonempty");
      return nullptr;
    }
    Rows.push_back(std::move(Row));
  }
  if (!expect(Tok::RParen, "')' closing the matrix row list") ||
      !expect(Tok::RParen, "')' closing (matrix ...)"))
    return nullptr;
  if (Rows.empty()) {
    Diags.error(Loc, "matrix must have at least one row");
    return nullptr;
  }
  for (const auto &Row : Rows)
    if (Row.size() != Rows[0].size()) {
      Diags.error(Loc, "matrix rows must all have the same length");
      return nullptr;
    }
  return makeGenMatrix(std::move(Rows), Loc, &Diags);
}

FormulaRef Parser::parseDiagonalForm(SourceLoc Loc) {
  if (!expect(Tok::LParen, "'(' starting the diagonal element list"))
    return nullptr;
  std::vector<Cplx> Elems;
  while (!cur().is(Tok::RParen) && !cur().is(Tok::Eof)) {
    auto E = parseElement();
    if (!E)
      return nullptr;
    Elems.push_back(*E);
  }
  if (!expect(Tok::RParen, "')' closing the element list") ||
      !expect(Tok::RParen, "')' closing (diagonal ...)"))
    return nullptr;
  if (Elems.empty()) {
    Diags.error(Loc, "diagonal must be nonempty");
    return nullptr;
  }
  return makeDiagonal(std::move(Elems), Loc, &Diags);
}

FormulaRef Parser::parsePermutationForm(SourceLoc Loc) {
  if (!expect(Tok::LParen, "'(' starting the permutation list"))
    return nullptr;
  std::vector<std::int64_t> Targets;
  while (cur().is(Tok::Number) && cur().IsInt)
    Targets.push_back(take().Int);
  if (!expect(Tok::RParen, "')' closing the permutation list") ||
      !expect(Tok::RParen, "')' closing (permutation ...)"))
    return nullptr;
  if (Targets.empty()) {
    Diags.error(Loc, "permutation must be nonempty");
    return nullptr;
  }
  std::vector<bool> Seen(Targets.size(), false);
  for (std::int64_t T : Targets) {
    if (T < 1 || T > static_cast<std::int64_t>(Targets.size()) ||
        Seen[T - 1]) {
      Diags.error(Loc, "permutation entries must be a permutation of 1..n");
      return nullptr;
    }
    Seen[T - 1] = true;
  }
  return makePermutation(std::move(Targets), Loc, &Diags);
}

//===----------------------------------------------------------------------===//
// Templates
//===----------------------------------------------------------------------===//

std::optional<tpl::TemplateDef> Parser::parseTemplate(SourceLoc Loc) {
  tpl::TemplateDef Def;
  Def.Loc = Loc;
  Def.Pattern = parseFormula(/*PatternMode=*/true);
  if (!Def.Pattern)
    return std::nullopt;

  if (cur().is(Tok::LBracket)) {
    take();
    Def.Condition = parseExpr(ExprContext::Condition);
    if (!Def.Condition)
      return std::nullopt;
    if (!expect(Tok::RBracket, "']' closing the template condition"))
      return std::nullopt;
  }

  if (!expect(Tok::LParen, "'(' starting the template i-code"))
    return std::nullopt;
  if (!parseTStmtList(Def.Body))
    return std::nullopt;
  if (!expect(Tok::RParen, "')' closing the template i-code") ||
      !expect(Tok::RParen, "')' closing (template ...)"))
    return std::nullopt;

  // Check loop balance up front so the expander can assume it.
  int Depth = 0;
  for (const tpl::TStmt &S : Def.Body) {
    if (S.K == tpl::TStmt::Do)
      ++Depth;
    else if (S.K == tpl::TStmt::EndDo && --Depth < 0) {
      Diags.error(S.Loc, "'end' without matching 'do' in template body");
      return std::nullopt;
    }
  }
  if (Depth != 0) {
    Diags.error(Loc, "unclosed 'do' loop in template body");
    return std::nullopt;
  }
  return Def;
}

//===----------------------------------------------------------------------===//
// Template i-code bodies
//===----------------------------------------------------------------------===//

bool Parser::parseTStmtList(std::vector<tpl::TStmt> &Out) {
  while (!cur().is(Tok::RParen) && !cur().is(Tok::Eof)) {
    auto S = parseTStmt();
    if (!S)
      return false;
    Out.push_back(std::move(*S));
  }
  return true;
}

std::optional<tpl::TStmt> Parser::parseTStmt() {
  tpl::TStmt S;
  S.Loc = cur().Loc;

  if (cur().isSymbol("do")) {
    take();
    S.K = tpl::TStmt::Do;
    if (!cur().is(Tok::Symbol) || !startsWith(cur().Text, "$i")) {
      error("expected a loop variable ($i0, $i1, ...) after 'do'");
      return std::nullopt;
    }
    S.LoopVar = take().Text;
    if (!expect(Tok::Equals, "'=' in do statement"))
      return std::nullopt;
    S.Lo = parseExpr(ExprContext::Body);
    if (!S.Lo || !expect(Tok::Comma, "',' between loop bounds"))
      return std::nullopt;
    S.Hi = parseExpr(ExprContext::Body);
    if (!S.Hi)
      return std::nullopt;
    return S;
  }

  if (cur().isSymbol("end")) {
    take();
    // Accept the Fortran-style "end do" spelling: consume a trailing "do"
    // unless it begins a new loop ("do $iK = ...").
    if (cur().isSymbol("do") &&
        !(peek(1).is(Tok::Symbol) && startsWith(peek(1).Text, "$")))
      take();
    S.K = tpl::TStmt::EndDo;
    return S;
  }

  if (cur().is(Tok::Symbol) && isFormulaVarName(cur().Text) &&
      peek(1).is(Tok::LParen)) {
    S.K = tpl::TStmt::CallFormula;
    S.Callee = take().Text;
    take(); // (
    while (!cur().is(Tok::RParen) && !cur().is(Tok::Eof)) {
      auto E = parseExpr(ExprContext::Body);
      if (!E)
        return std::nullopt;
      S.CallArgs.push_back(E);
      consumeIf(Tok::Comma);
    }
    if (!expect(Tok::RParen, "')' closing the formula call"))
      return std::nullopt;
    if (S.CallArgs.size() != 6) {
      Diags.error(S.Loc, "formula calls take exactly six arguments: "
                         "in, out, in_offset, out_offset, in_stride, "
                         "out_stride");
      return std::nullopt;
    }
    return S;
  }

  // Assignment.
  if (!cur().is(Tok::Symbol) || !startsWith(cur().Text, "$")) {
    error("expected a statement (do / end / assignment / formula call)");
    return std::nullopt;
  }
  S.K = tpl::TStmt::Assign;
  Token Lhs = take();
  if (cur().is(Tok::LParen) && cur().Adjacent) {
    take();
    tpl::TExprRef Sub = parseExpr(ExprContext::Body);
    if (!Sub || !expect(Tok::RParen, "')' closing the subscript"))
      return std::nullopt;
    S.Lhs = tpl::TExpr::vecRef(Lhs.Text, Sub, Lhs.Loc);
  } else {
    S.Lhs = tpl::TExpr::sym(Lhs.Text, Lhs.Loc);
  }
  if (!expect(Tok::Equals, "'=' in assignment"))
    return std::nullopt;
  S.Rhs = parseExpr(ExprContext::Body);
  if (!S.Rhs)
    return std::nullopt;
  return S;
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

namespace {

constexpr unsigned kindBit(tpl::TExpr::Kind K) { return 1u << K; }

/// Literals, + - * / and negation: what every context admits.
constexpr unsigned ArithKinds =
    kindBit(tpl::TExpr::Add) | kindBit(tpl::TExpr::Sub) |
    kindBit(tpl::TExpr::Mul) | kindBit(tpl::TExpr::Div) |
    kindBit(tpl::TExpr::Neg) | kindBit(tpl::TExpr::Num);

/// What one context of the expression grammar admits, and the wording of
/// its diagnostics. A binary operator outside Kinds ends the expression;
/// any other missing kind reads as a missing operand.
struct ContextRules {
  unsigned Kinds;         ///< Admitted tpl::TExpr kinds, one kindBit each.
  bool IntegerLiterals;   ///< Number tokens must be integers.
  bool Properties;        ///< Names may carry ".in_size" / ".out_size".
  const char *Expected;   ///< Error where an operand is missing.
  const char *ParenClose; ///< What the ')' of "( e )" closes.
  const char *CallClose;  ///< What the ')' of "f(args)" closes.
};

const ContextRules &rulesFor(ExprContext C) {
  using tpl::TExpr;
  static const ContextRules Rules[] = {
      // Condition.
      {ArithKinds | kindBit(TExpr::Mod) | kindBit(TExpr::Sym) |
           kindBit(TExpr::EQ) | kindBit(TExpr::NE) | kindBit(TExpr::LT) |
           kindBit(TExpr::LE) | kindBit(TExpr::GT) | kindBit(TExpr::GE) |
           kindBit(TExpr::And) | kindBit(TExpr::Or) | kindBit(TExpr::Not),
       true, true,
       "expected an integer, a pattern variable, or '(' in condition",
       "')' in condition", nullptr},
      // Body.
      {ArithKinds | kindBit(TExpr::Mod) | kindBit(TExpr::Sym) |
           kindBit(TExpr::VecRef) | kindBit(TExpr::Call) |
           kindBit(TExpr::Complex),
       false, true, "expected an expression",
       "')' closing a parenthesized expression",
       "')' closing the intrinsic call"},
      // Constant.
      {ArithKinds | kindBit(TExpr::Sym) | kindBit(TExpr::Call) |
           kindBit(TExpr::Complex),
       false, false, "expected a scalar constant",
       "')' closing a parenthesized constant",
       "')' closing the argument list"},
      // IntParam.
      {ArithKinds | kindBit(TExpr::Mod), true, false,
       "expected an integer parameter",
       "')' closing a parenthesized expression", nullptr},
  };
  return Rules[static_cast<int>(C)];
}

bool admits(ExprContext C, tpl::TExpr::Kind K) {
  return (rulesFor(C).Kinds & kindBit(K)) != 0;
}

/// The binary operators, loosest first. Comparisons do not associate:
/// "a < b < c" is an error.
struct BinaryOp {
  Tok T;
  tpl::TExpr::Kind K;
  int Prec;
};
constexpr int ComparisonPrec = 3;
constexpr BinaryOp BinaryOps[] = {
    {Tok::PipePipe, tpl::TExpr::Or, 1},  {Tok::AmpAmp, tpl::TExpr::And, 2},
    {Tok::EqEq, tpl::TExpr::EQ, 3},      {Tok::NotEq, tpl::TExpr::NE, 3},
    {Tok::Lt, tpl::TExpr::LT, 3},        {Tok::Le, tpl::TExpr::LE, 3},
    {Tok::Gt, tpl::TExpr::GT, 3},        {Tok::Ge, tpl::TExpr::GE, 3},
    {Tok::Plus, tpl::TExpr::Add, 4},     {Tok::Minus, tpl::TExpr::Sub, 4},
    {Tok::Star, tpl::TExpr::Mul, 5},     {Tok::Slash, tpl::TExpr::Div, 5},
    {Tok::Percent, tpl::TExpr::Mod, 5},
};

/// The operator \p T spells in context \p C, or null.
const BinaryOp *binaryOp(Tok T, ExprContext C) {
  for (const BinaryOp &Op : BinaryOps)
    if (Op.T == T)
      return admits(C, Op.K) ? &Op : nullptr;
  return nullptr;
}

/// A literal or a negated literal: what a template body's "(re, im)" takes.
bool isLiteral(const tpl::TExprRef &E) {
  return E->K == tpl::TExpr::Num ||
         (E->K == tpl::TExpr::Neg && E->Args[0]->K == tpl::TExpr::Num);
}

} // namespace

tpl::TExprRef Parser::parseExpr(ExprContext C, int MinPrec) {
  tpl::TExprRef L = parseUnary(C);
  // Each operator bounds the precedence of the next one, so a second
  // comparison ends the expression instead of applying to the first.
  int MaxPrec = INT_MAX;
  while (L) {
    const BinaryOp *Op = binaryOp(cur().Kind, C);
    if (!Op || Op->Prec < MinPrec || Op->Prec > MaxPrec)
      break;
    SourceLoc Loc = take().Loc;
    tpl::TExprRef R = parseExpr(C, Op->Prec + 1);
    if (!R)
      return nullptr;
    L = tpl::TExpr::bin(Op->K, L, R, Loc);
    MaxPrec = Op->Prec == ComparisonPrec ? Op->Prec - 1 : Op->Prec;
  }
  return L;
}

tpl::TExprRef Parser::parseUnary(ExprContext C) {
  if (cur().is(Tok::Minus) ||
      (cur().is(Tok::Bang) && admits(C, tpl::TExpr::Not))) {
    SourceLoc Loc = cur().Loc;
    auto K = take().is(Tok::Minus) ? tpl::TExpr::Neg : tpl::TExpr::Not;
    tpl::TExprRef E = parseUnary(C);
    return E ? tpl::TExpr::unary(K, E, Loc) : nullptr;
  }
  return parsePrimary(C);
}

tpl::TExprRef Parser::parsePrimary(ExprContext C) {
  const ContextRules &R = rulesFor(C);
  if (cur().is(Tok::Number) && (cur().IsInt || !R.IntegerLiterals)) {
    Token T = take();
    return tpl::TExpr::num(Cplx(T.Num, 0), T.Loc,
                           T.IsInt ? std::optional(T.Int) : std::nullopt);
  }

  if (cur().is(Tok::Symbol) && admits(C, tpl::TExpr::Sym)) {
    Token T = take();
    if (!cur().is(Tok::LParen) || !cur().Adjacent ||
        !admits(C, tpl::TExpr::Call))
      return tpl::TExpr::sym(
          R.Properties ? parsePropertyName(T.Text) : T.Text, T.Loc);
    take(); // (
    if (admits(C, tpl::TExpr::VecRef) && startsWith(T.Text, "$")) {
      // Vector reference with one subscript.
      tpl::TExprRef Sub = parseExpr(C);
      if (!Sub || !expect(Tok::RParen, "')' closing the subscript"))
        return nullptr;
      return tpl::TExpr::vecRef(T.Text, Sub, T.Loc);
    }
    // Arguments are space- (or comma-) separated.
    std::vector<tpl::TExprRef> Args;
    while (!cur().is(Tok::RParen) && !cur().is(Tok::Eof)) {
      tpl::TExprRef A = parseExpr(C);
      if (!A)
        return nullptr;
      Args.push_back(A);
      consumeIf(Tok::Comma);
    }
    if (!expect(Tok::RParen, R.CallClose))
      return nullptr;
    return tpl::TExpr::call(T.Text, std::move(Args), T.Loc);
  }

  if (cur().is(Tok::LParen)) {
    SourceLoc Loc = take().Loc;
    tpl::TExprRef A = parseExpr(C);
    if (!A)
      return nullptr;
    if (admits(C, tpl::TExpr::Complex) && consumeIf(Tok::Comma)) {
      tpl::TExprRef B = parseExpr(C);
      if (!B || !expect(Tok::RParen, "')' closing a complex constant"))
        return nullptr;
      tpl::TExprRef Pair = tpl::TExpr::bin(tpl::TExpr::Complex, A, B, Loc);
      if (C != ExprContext::Body)
        return Pair;
      // Template bodies take literal components ("(0.7,-0.7)") and see
      // the pair as one number.
      if (!isLiteral(A) || !isLiteral(B)) {
        Diags.error(Loc, "complex constants must have constant components");
        return nullptr;
      }
      return tpl::TExpr::num(*foldConstant(Pair, Diags), Loc);
    }
    if (!expect(Tok::RParen, R.ParenClose))
      return nullptr;
    return A;
  }

  error(R.Expected);
  return nullptr;
}

std::string Parser::parsePropertyName(std::string Base) {
  if (cur().is(Tok::Dot) && cur().Adjacent && peek(1).is(Tok::Symbol) &&
      peek(1).Adjacent) {
    take();
    Base += "." + take().Text;
  }
  return Base;
}

std::optional<Cplx> Parser::parseElement() {
  // Elements are whitespace-separated, so an element is a primary or a
  // negated element; infix arithmetic needs parentheses.
  tpl::TExprRef E = parseUnary(ExprContext::Constant);
  if (!E)
    return std::nullopt;
  return foldConstant(E, Diags);
}

//===----------------------------------------------------------------------===//
// Convenience entry points
//===----------------------------------------------------------------------===//

FormulaRef spl::parseFormulaString(const std::string &Source,
                                   Diagnostics &Diags, bool PatternMode) {
  Parser P(Source, Diags);
  return P.parseSingleFormula(PatternMode);
}

std::vector<tpl::TemplateDef>
spl::parseTemplateString(const std::string &Source, Diagnostics &Diags) {
  Parser P(Source, Diags);
  auto Prog = P.parseProgram();
  if (!Prog)
    return {};
  return std::move(Prog->Templates);
}
