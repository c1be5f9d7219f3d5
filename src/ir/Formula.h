//===- ir/Formula.h - SPL formula trees -------------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// SPL formulas: matrix expressions built from parameterized matrices
/// (I, F, L, T, WHT, DCT...), explicit matrices (matrix/diagonal/
/// permutation) and matrix operators (compose, tensor, direct-sum).
/// A formula denotes a matrix (Formula::toMatrix) and, once compiled, a
/// subroutine computing the corresponding matrix-vector product.
///
/// Formula trees are also used as template *patterns*: integer parameters
/// may be pattern variables ("n_") and whole sub-formulas may be formula
/// pattern variables ("A_"), per Section 3.2 of the paper.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_IR_FORMULA_H
#define SPL_IR_FORMULA_H

#include "ir/Matrix.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace spl {

class Formula;
using FormulaRef = std::shared_ptr<const Formula>;

/// Kinds of formula nodes.
enum class FKind {
  // Parameterized matrices.
  Identity,    ///< (I n)
  DFT,         ///< (F n), the DFT by definition
  Stride,      ///< (L mn n), stride permutation
  Twiddle,     ///< (T mn n), twiddle matrix of Equation 4
  WHT,         ///< (WHT n), Walsh-Hadamard transform
  DCT2,        ///< (DCT2 n), unnormalized DCT type II
  DCT4,        ///< (DCT4 n), unnormalized DCT type IV
  Split,       ///< (S n), the real split butterfly of the rdft (n = 2^k)
  // Explicit matrices.
  GenMatrix,   ///< (matrix ((a11 ... a1n) ...))
  Diagonal,    ///< (diagonal (d1 ... dn))
  Permutation, ///< (permutation (k1 ... kn)), 1-based: y_i = x_{k_i - 1}
  // Matrix operators (binary; n-ary source forms associate right-to-left).
  Compose,     ///< (compose A B) = A * B
  Tensor,      ///< (tensor A B) = A (x) B
  DirectSum,   ///< (direct-sum A B) = diag(A, B)
  /// (realify A): the real 2m x 2n matrix acting on interleaved (re, im)
  /// pairs the way the complex m x n matrix A acts on points (the type
  /// transformation of Section 3.3 applied to one sub-formula).
  Realify,
  /// A user-defined parameterized matrix, introduced by a template whose
  /// pattern head is not a built-in name, e.g. (template (J n_) ...). Its
  /// sizes are unknown at formula-build time and are inferred by the
  /// expander from the template body.
  UserParam,
  // Pattern-only node.
  PatFormula,  ///< "A_" in a template pattern
};

/// Returns the SPL operator/matrix name for \p Kind ("compose", "F", ...).
const char *kindName(FKind Kind);

/// An integer argument of a parameterized matrix; either a literal value or
/// (inside template patterns only) a pattern variable name such as "n_".
struct IntArg {
  std::int64_t Value = 0;
  std::string Var;

  IntArg() = default;
  IntArg(std::int64_t Value) : Value(Value) {}
  explicit IntArg(std::string VarName) : Var(std::move(VarName)) {}

  bool isVar() const { return !Var.empty(); }

  friend bool operator==(const IntArg &A, const IntArg &B) {
    return A.Value == B.Value && A.Var == B.Var;
  }
};

/// An immutable SPL formula node. Construct through the factory functions in
/// ir/Builder.h, which validate and pre-compute sizes.
class Formula {
public:
  FKind kind() const { return Kind; }
  SourceLoc loc() const { return Loc; }

  /// Number of elements of the input (column count) or -1 when the formula
  /// contains pattern variables.
  std::int64_t inSize() const { return InSize; }
  /// Number of elements of the output (row count) or -1 when unknown.
  std::int64_t outSize() const { return OutSize; }

  /// True when this tree contains any pattern variable (and hence denotes a
  /// template pattern, not a concrete matrix).
  bool isPattern() const;

  /// Integer parameters of a parameterized matrix, e.g. {mn, n} for L.
  const std::vector<IntArg> &params() const { return Params; }

  /// Integer parameter \p I, which must be a literal.
  std::int64_t param(unsigned I) const;

  const std::vector<FormulaRef> &children() const { return Children; }
  const FormulaRef &child(unsigned I) const {
    assert(I < Children.size() && "child index out of range");
    return Children[I];
  }

  /// Rows of a GenMatrix node.
  const std::vector<std::vector<Cplx>> &matrixRows() const {
    assert(Kind == FKind::GenMatrix && "not a general matrix");
    return MatrixRows;
  }
  /// Diagonal elements of a Diagonal node.
  const std::vector<Cplx> &diagElems() const {
    assert(Kind == FKind::Diagonal && "not a diagonal");
    return DiagElems;
  }
  /// 1-based permutation targets of a Permutation node.
  const std::vector<std::int64_t> &permTargets() const {
    assert(Kind == FKind::Permutation && "not a permutation");
    return PermTargets;
  }
  /// Name of a PatFormula node ("A_") or of a UserParam matrix ("J").
  const std::string &varName() const {
    assert((Kind == FKind::PatFormula || Kind == FKind::UserParam) &&
           "node has no name");
    return VarName;
  }

  /// Per-formula #unroll annotation: set means the paper's "#unroll on/off"
  /// was in effect when this (sub)formula was defined.
  std::optional<bool> unrollHint() const { return UnrollHint; }

  /// True when toMatrix() is callable on this tree: no pattern variables
  /// and no user-defined matrices (whose semantics live in templates, not
  /// in a dense interpretation). Check before building an oracle.
  bool hasDenseSemantics() const;

  /// Dense matrix denoted by this formula. hasDenseSemantics() must be
  /// true. Quadratic in size; intended for tests, small examples, and the
  /// runtime's oracle tier.
  Matrix toMatrix() const;

  /// Renders in Cambridge Polish notation, flattening right-nested chains of
  /// the same operator into the customary n-ary form.
  std::string print() const;

  /// Structural equality (same kinds, parameters, data and children).
  static bool equal(const Formula &A, const Formula &B);

  /// Structural hash consistent with equal().
  std::size_t hash() const;

private:
  friend class FormulaFactory;
  Formula() = default;

  FKind Kind = FKind::Identity;
  std::vector<IntArg> Params;
  std::vector<FormulaRef> Children;
  std::vector<std::vector<Cplx>> MatrixRows;
  std::vector<Cplx> DiagElems;
  std::vector<std::int64_t> PermTargets;
  std::string VarName;
  std::optional<bool> UnrollHint;
  SourceLoc Loc;
  std::int64_t InSize = -1;
  std::int64_t OutSize = -1;

  void printInto(std::string &Out) const;
};

/// Convenience wrapper for structural equality on refs (null-safe).
bool formulaEqual(const FormulaRef &A, const FormulaRef &B);

} // namespace spl

#endif // SPL_IR_FORMULA_H
