//===- templates/Condition.cpp - Template conditions -----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "templates/Condition.h"

#include <cassert>
#include <limits>

using namespace spl;
using namespace spl::cond;
using tpl::TExpr;

std::optional<std::int64_t> cond::eval(const tpl::TExprRef &E,
                                       const Lookup &L) {
  if (!E)
    return std::nullopt;
  switch (E->K) {
  case TExpr::Num: {
    // Integer literals are exact up to 2^53; beyond int64 they saturate,
    // as the lexer's strtoll does.
    double V = E->NumVal.real();
    if (V >= 0x1p63)
      return std::numeric_limits<std::int64_t>::max();
    if (V < -0x1p63)
      return std::numeric_limits<std::int64_t>::min();
    return static_cast<std::int64_t>(V);
  }
  case TExpr::Sym:
    return L(E->Name);
  case TExpr::Neg: {
    auto V = eval(E->Args[0], L);
    if (!V)
      return std::nullopt;
    return -*V;
  }
  case TExpr::Not: {
    auto V = eval(E->Args[0], L);
    if (!V)
      return std::nullopt;
    return *V == 0 ? 1 : 0;
  }
  case TExpr::And: {
    // Short-circuit, but an unresolvable left side poisons the result.
    auto A = eval(E->Args[0], L);
    if (!A)
      return std::nullopt;
    if (*A == 0)
      return 0;
    auto B = eval(E->Args[1], L);
    if (!B)
      return std::nullopt;
    return *B != 0 ? 1 : 0;
  }
  case TExpr::Or: {
    auto A = eval(E->Args[0], L);
    if (!A)
      return std::nullopt;
    if (*A != 0)
      return 1;
    auto B = eval(E->Args[1], L);
    if (!B)
      return std::nullopt;
    return *B != 0 ? 1 : 0;
  }
  case TExpr::VecRef:
  case TExpr::Call:
  case TExpr::Complex:
    return std::nullopt; // Not integer-valued; the parser admits none here.
  default:
    break;
  }

  auto A = eval(E->Args[0], L), B = eval(E->Args[1], L);
  if (!A || !B)
    return std::nullopt;
  switch (E->K) {
  case TExpr::Add:
    return *A + *B;
  case TExpr::Sub:
    return *A - *B;
  case TExpr::Mul:
    return *A * *B;
  case TExpr::Div:
    if (*B == 0)
      return std::nullopt;
    return *A / *B;
  case TExpr::Mod:
    if (*B == 0)
      return std::nullopt;
    return *A % *B;
  case TExpr::EQ:
    return *A == *B ? 1 : 0;
  case TExpr::NE:
    return *A != *B ? 1 : 0;
  case TExpr::LT:
    return *A < *B ? 1 : 0;
  case TExpr::LE:
    return *A <= *B ? 1 : 0;
  case TExpr::GT:
    return *A > *B ? 1 : 0;
  case TExpr::GE:
    return *A >= *B ? 1 : 0;
  default:
    assert(false && "unhandled condition kind");
    return std::nullopt;
  }
}

bool cond::holds(const tpl::TExprRef &E, const Lookup &L) {
  if (!E)
    return true;
  auto V = eval(E, L);
  return V && *V != 0;
}
