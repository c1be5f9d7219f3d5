//===- frontend/ScalarExpr.cpp - Constant scalar functions -----------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/ScalarExpr.h"

#include "ir/Transforms.h"
#include "support/StrUtil.h"

#include <cassert>
#include <cmath>

using namespace spl;

std::optional<Cplx> spl::scalarConstant(const std::string &Name) {
  std::string N = toLower(Name);
  if (N == "pi")
    return Cplx(3.14159265358979323846264338327950288, 0);
  return std::nullopt;
}

std::optional<Cplx> spl::applyScalarFn(const std::string &Name,
                                       const std::vector<Cplx> &Args) {
  std::string N = toLower(Name);
  if (N == "w") {
    if (Args.size() != 2)
      return std::nullopt;
    // Arguments must be (near-)integers.
    auto Order = static_cast<std::int64_t>(std::llround(Args[0].real()));
    auto Power = static_cast<std::int64_t>(std::llround(Args[1].real()));
    if (Order <= 0)
      return std::nullopt;
    return wRoot(Order, Power);
  }

  if (Args.size() != 1)
    return std::nullopt;
  Cplx X = Args[0];
  bool IsReal = X.imag() == 0;
  if (N == "sqrt")
    return IsReal && X.real() >= 0 ? Cplx(std::sqrt(X.real()), 0)
                                   : std::sqrt(X);
  if (N == "cos")
    return IsReal ? Cplx(std::cos(X.real()), 0) : std::cos(X);
  if (N == "sin")
    return IsReal ? Cplx(std::sin(X.real()), 0) : std::sin(X);
  if (N == "tan")
    return IsReal ? Cplx(std::tan(X.real()), 0) : std::tan(X);
  if (N == "exp")
    return IsReal ? Cplx(std::exp(X.real()), 0) : std::exp(X);
  if (N == "log")
    return IsReal && X.real() > 0 ? Cplx(std::log(X.real()), 0) : std::log(X);
  return std::nullopt;
}

std::optional<Cplx> spl::foldConstant(const tpl::TExprRef &E,
                                      Diagnostics &Diags) {
  using tpl::TExpr;
  switch (E->K) {
  case TExpr::Num:
    return E->NumVal;
  case TExpr::Sym: {
    auto V = scalarConstant(E->Name);
    if (!V)
      Diags.error(E->Loc, "unknown scalar constant '" + E->Name + "'");
    return V;
  }
  case TExpr::Call: {
    std::vector<Cplx> Args;
    for (const tpl::TExprRef &A : E->Args) {
      auto V = foldConstant(A, Diags);
      if (!V)
        return std::nullopt;
      Args.push_back(*V);
    }
    auto V = applyScalarFn(E->Name, Args);
    if (!V)
      Diags.error(E->Loc, "unknown scalar function '" + E->Name +
                              "' or wrong number of arguments");
    return V;
  }
  case TExpr::Neg: {
    auto V = foldConstant(E->Args[0], Diags);
    if (!V)
      return std::nullopt;
    return -*V;
  }
  default:
    break;
  }

  auto A = foldConstant(E->Args[0], Diags);
  if (!A)
    return std::nullopt;
  auto B = foldConstant(E->Args[1], Diags);
  if (!B)
    return std::nullopt;
  switch (E->K) {
  case TExpr::Complex:
    if (A->imag() != 0 || B->imag() != 0) {
      Diags.error(E->Loc, "components of a complex constant must be real");
      return std::nullopt;
    }
    return Cplx(A->real(), B->real());
  case TExpr::Add:
    return *A + *B;
  case TExpr::Sub:
    return *A - *B;
  case TExpr::Mul:
    return *A * *B;
  case TExpr::Div:
    if (*B == Cplx(0, 0)) {
      Diags.error(E->Loc, "division by zero in constant expression");
      return std::nullopt;
    }
    return *A / *B;
  default:
    assert(false && "kind not admitted in constant expressions");
    return std::nullopt;
  }
}
