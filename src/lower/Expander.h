//===- lower/Expander.h - Formula-to-icode expansion ------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The intermediate-code generator (paper Section 3.2): translates an SPL
/// formula into i-code by recursive template instantiation. Matching walks
/// the template registry in reverse definition order; each instantiation
/// receives the six implicit parameters (input/output vector, offsets,
/// strides), which are composed through nested formula calls so the final
/// program addresses only the real input/output and temporary vectors.
///
/// Explicit matrices (matrix/diagonal/permutation), the general tensor
/// split A (x) B = (A (x) I)(I (x) B) and (realify A) are native rules,
/// applied only when no template matches, so user templates can override
/// them too. (realify A) expands A as a complex program of its own, runs it
/// through the pipeline's prefix up to the complex-to-real transformation
/// (opt::runPrefix) and splices the real body in.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_LOWER_EXPANDER_H
#define SPL_LOWER_EXPANDER_H

#include "icode/ICode.h"
#include "icode/Intrinsics.h"
#include "ir/Formula.h"
#include "support/Diagnostics.h"
#include "templates/Matcher.h"
#include "templates/Registry.h"

#include <map>
#include <optional>

namespace spl {
namespace lower {

/// Options governing one expansion.
struct ExpandOptions {
  /// Subroutine name to record in the program.
  std::string SubName = "sub";

  /// Element type: #datatype complex|real.
  icode::DataType Datatype = icode::DataType::Complex;

  /// The -B command-line option: loops in sub-formulas whose input vector is
  /// at most this long are marked for full unrolling (0 disables). The
  /// per-formula #unroll hint overrides this.
  std::int64_t UnrollThreshold = 0;
};

/// Expands formulas to i-code programs against a template registry.
class Expander {
public:
  Expander(const tpl::TemplateRegistry &Registry, Diagnostics &Diags,
           const icode::IntrinsicRegistry &Intrinsics =
               icode::IntrinsicRegistry::builtins())
      : Registry(Registry), Diags(Diags), Intrinsics(Intrinsics) {}

  /// Expands \p F into a complete i-code program. Returns nullopt after
  /// reporting diagnostics on failure.
  std::optional<icode::Program> expand(const FormulaRef &F,
                                       const ExpandOptions &Opts);

  /// Infers (in_size, out_size) of \p F, instantiating templates of
  /// user-defined matrices as needed (the paper's "inferred by the SPL
  /// compiler from the template"). Results are memoized.
  std::optional<std::pair<std::int64_t, std::int64_t>>
  inferSizes(const FormulaRef &F);

private:
  const tpl::TemplateRegistry &Registry;
  Diagnostics &Diags;
  const icode::IntrinsicRegistry &Intrinsics;

  // State of the current expand() call.
  icode::Program *P = nullptr;
  ExpandOptions Opts;
  std::map<std::string, std::pair<std::int64_t, std::int64_t>> SizeCache;

  /// Mapping from a template's logical vector to physical storage: logical
  /// element k lives at VecId[Offset + Stride*k].
  struct VecMap {
    int VecId = icode::VecIn;
    icode::Affine Offset;
    std::int64_t Stride = 1;
  };

  /// Per-instantiation state.
  struct Scope {
    tpl::Bindings Binds;
    const Formula *F = nullptr;
    VecMap In, Out;
    std::map<std::string, icode::IntValue> Ints; ///< $iK and $rK values.
    std::map<std::string, int> FltTemps;         ///< $fK -> global id.
    std::map<std::string, int> TempVecs;         ///< $tK -> vector id.
  };

  bool fail(SourceLoc Loc, std::string Message);

  // Recursive expansion.
  bool expandInto(const FormulaRef &F, const VecMap &In, const VecMap &Out,
                  bool UnrollActive);
  bool instantiate(const tpl::TemplateDef &Def, tpl::Bindings Binds,
                   const FormulaRef &F, const VecMap &In, const VecMap &Out,
                   bool Unroll);

  // Template statement / expression lowering.
  bool emitStmt(Scope &S, const tpl::TStmt &Stmt, bool Unroll);
  bool emitAssign(Scope &S, const icode::Operand &Dst,
                  const tpl::TExprRef &Rhs);
  bool emitCall(Scope &S, const tpl::TStmt &Stmt, bool Unroll);
  std::optional<icode::Operand> floatOperand(Scope &S, const tpl::TExprRef &E);
  std::optional<icode::Operand> flattenOperand(Scope &S,
                                               const tpl::TExprRef &E);
  std::optional<icode::Operand> vecOperand(Scope &S, const std::string &Name,
                                           const tpl::TExprRef &Subscript,
                                           bool IsWrite, SourceLoc Loc);
  std::optional<icode::IntValue> lowerInt(Scope &S, const tpl::TExprRef &E);
  std::optional<icode::Affine> toAffine(const icode::IntExprRef &E,
                                        SourceLoc Loc);
  std::optional<VecMap> resolveVecArg(Scope &S, const tpl::TExprRef &Arg,
                                      const FormulaRef &Callee, bool IsOut);

  // Native expansion rules.
  bool expandGenMatrix(const Formula &F, const VecMap &In, const VecMap &Out);
  bool expandDiagonal(const Formula &F, const VecMap &In, const VecMap &Out);
  bool expandPermutation(const Formula &F, const VecMap &In,
                         const VecMap &Out);
  bool expandTensorSplit(const FormulaRef &F, const VecMap &In,
                         const VecMap &Out, bool UnrollActive);
  bool expandRealify(const FormulaRef &F, const VecMap &In, const VecMap &Out,
                     bool UnrollActive);

  // Helpers.
  int freshFltTemp() { return P->NumFltTemps++; }
  int freshLoopVar() { return P->NumLoopVars++; }
  int allocTempVec(std::int64_t Size);
  icode::Operand mapVec(const VecMap &M, const icode::Affine &Sub) const;
  std::optional<icode::IntValue> bindingValue(const tpl::Bindings &Binds,
                                              const std::string &Name);
  bool conditionHolds(const tpl::TemplateDef &Def,
                      const tpl::Bindings &Binds);
  bool checkRealConst(Cplx V, SourceLoc Loc);
  std::optional<std::pair<std::int64_t, std::int64_t>>
  inferUserParamSizes(const FormulaRef &F);
};

/// Computes 1 + the maximum subscript with which \p VecId is referenced in
/// \p Prog (0 when never referenced). Loop bounds must be constants.
std::int64_t computeVecExtent(const icode::Program &Prog, int VecId);

} // namespace lower
} // namespace spl

#endif // SPL_LOWER_EXPANDER_H
