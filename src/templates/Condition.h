//===- templates/Condition.h - Template conditions --------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Evaluation of the C-style boolean expressions attached to templates in
/// brackets, e.g. [ mn_ == 2*n_ ] or [ A_.in_size == B_.out_size ]. The
/// parser builds them as tpl::TExpr trees whose leaves are integer
/// literals, integer pattern variables and size properties of formula
/// pattern variables; evaluation receives a name-lookup callback supplied
/// by the expander (which knows the current bindings and can infer sizes).
/// The parser also folds parenthesized integer parameters with eval().
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TEMPLATES_CONDITION_H
#define SPL_TEMPLATES_CONDITION_H

#include "templates/TemplateDef.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

namespace spl {
namespace cond {

/// Resolves a leaf name to its integer value; returns nullopt when the name
/// is unbound or (for size properties) the size cannot be determined.
using Lookup = std::function<std::optional<std::int64_t>(const std::string &)>;

/// Evaluates an integer expression. Returns nullopt when any leaf is
/// unresolvable or a division/modulo by zero occurs; callers treat that as
/// "does not match". Boolean results use C semantics (nonzero is true);
/// comparisons yield 0/1.
std::optional<std::int64_t> eval(const tpl::TExprRef &E, const Lookup &L);

/// Convenience wrapper: true iff eval() succeeds with a nonzero value. A
/// null expression (template without condition) is trivially true.
bool holds(const tpl::TExprRef &E, const Lookup &L);

} // namespace cond
} // namespace spl

#endif // SPL_TEMPLATES_CONDITION_H
