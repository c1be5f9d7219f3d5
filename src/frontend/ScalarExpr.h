//===- frontend/ScalarExpr.h - Constant scalar functions --------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Named constants and functions usable inside SPL constant scalar
/// expressions such as sqrt(2) or (cos(2*pi/3.0),sin(2*pi/3.0)), and the
/// folder that evaluates such an expression tree at compile time (paper
/// Section 2.2).
///
//===----------------------------------------------------------------------===//

#ifndef SPL_FRONTEND_SCALAREXPR_H
#define SPL_FRONTEND_SCALAREXPR_H

#include "ir/Matrix.h"
#include "support/Diagnostics.h"
#include "templates/TemplateDef.h"

#include <optional>
#include <string>
#include <vector>

namespace spl {

/// Value of a named scalar constant ("pi"); nullopt when unknown.
std::optional<Cplx> scalarConstant(const std::string &Name);

/// Applies a scalar function ("sqrt", "cos", "sin", "tan", "exp", "log",
/// "w") to \p Args. w(n,k) is the DFT root of unity w_n^k. Returns nullopt
/// for an unknown function or wrong arity.
std::optional<Cplx> applyScalarFn(const std::string &Name,
                                  const std::vector<Cplx> &Args);

/// Folds a constant expression tree (a matrix or diagonal element, or a
/// complex pair in a template body) to its value: names are constants,
/// calls are scalar functions, '/' divides complex numbers. Reports to
/// \p Diags and returns nullopt on failure.
std::optional<Cplx> foldConstant(const tpl::TExprRef &E, Diagnostics &Diags);

} // namespace spl

#endif // SPL_FRONTEND_SCALAREXPR_H
