//===- templates/TemplateDef.h - Template definitions -----------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parsed form of SPL templates (paper Section 3.2): a pattern (a formula
/// containing pattern variables), an optional C-style boolean condition, and
/// an i-code body. Conditions and bodies are kept symbolic (TExpr/TStmt);
/// the expander evaluates and instantiates them once pattern variables are
/// bound to concrete values.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TEMPLATES_TEMPLATEDEF_H
#define SPL_TEMPLATES_TEMPLATEDEF_H

#include "ir/Formula.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace spl {
namespace tpl {

struct TExpr;
using TExprRef = std::shared_ptr<const TExpr>;

/// A node of SPL's one expression language, as written in template
/// conditions and bodies, matrix elements and integer parameters. Each of
/// those contexts admits a subset of the kinds (docs/LANGUAGE.md §2).
/// Scalar names keep their source spelling: "$i0" (loop index), "$r0"
/// (integer temp), "$f0" (float temp), "n_" (integer pattern variable),
/// "A_.in_size" (property of a bound formula variable), "pi".
struct TExpr {
  enum Kind {
    Num,     ///< Numeric literal (possibly complex).
    Sym,     ///< Named scalar; see above.
    VecRef,  ///< $in(e), $out(e), $tK(e).
    Call,    ///< Function or intrinsic call name(e1 e2 ...).
    Complex, ///< Complex constant (re, im).
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    EQ,
    NE,
    LT,
    LE,
    GT,
    GE,
    And,
    Or,
    Neg,
    Not,
  } K = Num;

  Cplx NumVal;                ///< For Num.
  std::optional<std::int64_t> Int; ///< For Num: an integer literal, exact.
  std::string Name;           ///< For Sym / VecRef / Call.
  std::vector<TExprRef> Args; ///< Subscript, call args, or operands.
  SourceLoc Loc;

  static TExprRef num(Cplx V, SourceLoc Loc = SourceLoc(),
                      std::optional<std::int64_t> Int = std::nullopt) {
    auto E = std::make_shared<TExpr>();
    E->K = Num;
    E->NumVal = V;
    E->Int = Int;
    E->Loc = Loc;
    return E;
  }
  static TExprRef sym(std::string Name, SourceLoc Loc = SourceLoc()) {
    auto E = std::make_shared<TExpr>();
    E->K = Sym;
    E->Name = std::move(Name);
    E->Loc = Loc;
    return E;
  }
  static TExprRef vecRef(std::string Name, TExprRef Subscript,
                         SourceLoc Loc = SourceLoc()) {
    auto E = std::make_shared<TExpr>();
    E->K = VecRef;
    E->Name = std::move(Name);
    E->Args.push_back(std::move(Subscript));
    E->Loc = Loc;
    return E;
  }
  static TExprRef call(std::string Name, std::vector<TExprRef> CallArgs,
                       SourceLoc Loc = SourceLoc()) {
    auto E = std::make_shared<TExpr>();
    E->K = Call;
    E->Name = std::move(Name);
    E->Args = std::move(CallArgs);
    E->Loc = Loc;
    return E;
  }
  static TExprRef bin(Kind K, TExprRef L, TExprRef R,
                      SourceLoc Loc = SourceLoc()) {
    auto E = std::make_shared<TExpr>();
    E->K = K;
    E->Args.push_back(std::move(L));
    E->Args.push_back(std::move(R));
    E->Loc = Loc;
    return E;
  }
  static TExprRef unary(Kind K, TExprRef Sub, SourceLoc Loc = SourceLoc()) {
    auto E = std::make_shared<TExpr>();
    E->K = K;
    E->Args.push_back(std::move(Sub));
    E->Loc = Loc;
    return E;
  }
};

/// A statement in a template body.
struct TStmt {
  enum Kind {
    Do,          ///< do <LoopVar> = <Lo>, <Hi>
    EndDo,       ///< end
    Assign,      ///< <Lhs> = <Rhs>
    CallFormula, ///< A_($in, $out, in_off, out_off, in_stride, out_stride)
  } K = Assign;

  // Do.
  std::string LoopVar;
  TExprRef Lo, Hi;
  // Assign.
  TExprRef Lhs, Rhs;
  // CallFormula. Args are exactly the six implicit parameters, in order:
  // in, out, in_offset, out_offset, in_stride, out_stride.
  std::string Callee;
  std::vector<TExprRef> CallArgs;

  SourceLoc Loc;
};

/// One template definition.
struct TemplateDef {
  FormulaRef Pattern;
  TExprRef Condition; ///< Null when the template has no condition.
  std::vector<TStmt> Body;
  SourceLoc Loc;
};

} // namespace tpl
} // namespace spl

#endif // SPL_TEMPLATES_TEMPLATEDEF_H
