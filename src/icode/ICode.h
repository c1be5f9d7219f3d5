//===- icode/ICode.h - The SPL intermediate code ----------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's i-code: Fortran-style do loops plus four-tuple instructions
/// (Section 3.2). After template expansion a program contains only
/// floating-point operations; loop bounds are integer constants; vector
/// subscripts are affine (linear combinations of loop indices with constant
/// coefficients, as the paper requires); intrinsic-function arguments may be
/// arbitrary integer expressions over loop indices (e.g. W(n, $i0*$i1)).
/// Integer temporaries ($r) appear only in template bodies and are folded
/// symbolically during expansion.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_ICODE_ICODE_H
#define SPL_ICODE_ICODE_H

#include "ir/Matrix.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace spl {
namespace tpl {
struct TExpr;
} // namespace tpl

namespace icode {

//===----------------------------------------------------------------------===//
// Integer expressions (intrinsic arguments)
//===----------------------------------------------------------------------===//

/// A compile-time integer expression over loop indices. Used for intrinsic
/// arguments, which (unlike vector subscripts) need not be affine.
struct IntExpr;
using IntExprRef = std::shared_ptr<const IntExpr>;

struct IntExpr {
  enum Kind { Const, Var, Add, Sub, Mul, Div, Mod } K = Const;
  std::int64_t C = 0; ///< Value for Const.
  int V = 0;          ///< Loop-variable id for Var.
  IntExprRef L, R;    ///< Operands for binary kinds.

  static IntExprRef mkConst(std::int64_t C);
  static IntExprRef mkVar(int V);
  static IntExprRef mkBin(Kind K, IntExprRef L, IntExprRef R);

  /// SPL's integer arithmetic, shared by lowerInt(), mkBin()'s constant
  /// fold and eval(): 64-bit values, '/' truncating toward zero, '%' taking
  /// the sign of the dividend. Returns nullopt when the divisor is zero or
  /// the result does not fit in 64 bits.
  static std::optional<std::int64_t> apply(Kind K, std::int64_t A,
                                           std::int64_t B);

  /// Evaluates with loop variable values \p Vars (indexed by variable id).
  /// lowerInt() bounded every expression over its loops, so with each
  /// variable inside its loop's bounds no operation fails.
  std::int64_t eval(const std::vector<std::int64_t> &Vars) const;

  /// Appends the ids of all loop variables referenced to \p Out (may repeat).
  void collectVars(std::vector<int> &Out) const;

  /// Substitutes loop variable \p V by expression \p E.
  IntExprRef substVar(int V, const IntExprRef &E) const;

  /// Renders for debugging / printing ("$i0*$i1+4").
  std::string str() const;
};

//===----------------------------------------------------------------------===//
// Lowering integer expressions
//===----------------------------------------------------------------------===//

/// An integer expression being lowered: the constant Lo == Hi when E is
/// null, else the tree E over loop variables, whose value stays within
/// [Lo, Hi] while each variable stays within its loop's bounds.
struct IntValue {
  IntExprRef E;
  std::int64_t Lo = 0, Hi = 0;

  static IntValue constant(std::int64_t C) { return {nullptr, C, C}; }
  bool isConst() const { return !E; }
  /// E, or a Const node for a constant.
  IntExprRef expr() const { return E ? E : IntExpr::mkConst(Lo); }
};

/// Why lowerInt() failed: Message (worded for i-code bodies) at Loc, or a
/// name that did not resolve (null Message; its resolver reports why).
struct IntFault {
  SourceLoc Loc;
  const char *Message = nullptr;
  bool Overflow = false; ///< A result beyond 64 bits, not a zero divisor.
};

/// Resolves a name of an integer expression; nullopt when it does not
/// resolve in the context being lowered.
using IntNames =
    std::function<std::optional<IntValue>(const tpl::TExpr &Name)>;

/// The one lowering of SPL's integer expressions (docs/LANGUAGE.md section
/// 2.1): a template condition, an integer parameter or a template body's
/// \p E, with names resolved by \p Names (empty: none resolve). Constants
/// fold through IntExpr::apply(); an operation over loop variables becomes
/// a node bounded over their loops by the same apply(), so one that can
/// overflow or divide by zero fails here, never in mkBin() or eval().
/// '&&' '||' '!' and comparisons take constants, yield 0 or 1, and do not
/// lower e in '0 && e' and '1 || e'. On failure sets \p Fault.
std::optional<IntValue> lowerInt(const tpl::TExpr &E, const IntNames &Names,
                                 IntFault &Fault);

//===----------------------------------------------------------------------===//
// Affine subscripts
//===----------------------------------------------------------------------===//

/// An affine integer form: Base + sum(Coef_k * $i_{Var_k}). Vector and table
/// subscripts are always affine; the expander enforces this.
struct Affine {
  std::int64_t Base = 0;
  std::vector<std::pair<int, std::int64_t>> Terms; ///< (loop var id, coef)

  Affine() = default;
  explicit Affine(std::int64_t Base) : Base(Base) {}

  static Affine var(int V, std::int64_t Coef = 1);

  bool isConst() const { return Terms.empty(); }

  Affine plus(const Affine &O) const;
  Affine plusConst(std::int64_t C) const;
  Affine scaled(std::int64_t C) const;

  /// Substitutes loop variable \p V by affine form \p E (used by unrolling).
  Affine substVar(int V, const Affine &E) const;

  /// Evaluates with loop variable values \p Vars.
  std::int64_t eval(const std::vector<std::int64_t> &Vars) const;

  /// Coefficient of variable \p V (0 when absent).
  std::int64_t coefOf(int V) const;

  /// True when the form references loop variable \p V.
  bool usesVar(int V) const;

  /// Canonicalizes: merges duplicate variables, drops zero terms, sorts.
  void normalize();

  std::string str() const;

  friend bool operator==(const Affine &A, const Affine &B) {
    return A.Base == B.Base && A.Terms == B.Terms;
  }
};

//===----------------------------------------------------------------------===//
// Operands
//===----------------------------------------------------------------------===//

/// Well-known vector ids: 0 is the subroutine input, 1 the output; 2+ are
/// temporary vectors ($t0 is id 2, ...).
enum : int { VecIn = 0, VecOut = 1, FirstTempVec = 2 };

/// Kind of an instruction operand.
enum class OpndKind {
  None,      ///< Unused slot.
  FltConst,  ///< Floating (complex) constant.
  FltTemp,   ///< Scalar floating temporary $fK.
  VecElem,   ///< Vector element Vec[Subs].
  TableElem, ///< Compile-time table element (after intrinsic evaluation).
  Intrinsic, ///< Intrinsic call W(n, e) (before intrinsic evaluation).
};

/// One operand of a four-tuple instruction.
struct Operand {
  OpndKind Kind = OpndKind::None;
  Cplx FConst;                  ///< For FltConst.
  int Id = 0;                   ///< Temp id / vector id / table id.
  Affine Subs;                  ///< For VecElem and TableElem.
  std::string Name;             ///< Intrinsic name.
  std::vector<IntExprRef> Args; ///< Intrinsic arguments.

  static Operand none() { return Operand(); }
  static Operand fltConst(Cplx V);
  static Operand fltTemp(int Id);
  static Operand vecElem(int VecId, Affine Subs);
  static Operand tableElem(int TableId, Affine Subs);
  static Operand intrinsic(std::string Name, std::vector<IntExprRef> Args);

  bool is(OpndKind K) const { return Kind == K; }
  std::string str() const;
};

bool operator==(const Operand &A, const Operand &B);

//===----------------------------------------------------------------------===//
// Instructions
//===----------------------------------------------------------------------===//

/// Instruction opcodes: assignment and arithmetic four-tuples plus loop
/// brackets.
enum class Op {
  Copy, ///< Dst = A
  Add,  ///< Dst = A + B
  Sub,  ///< Dst = A - B
  Mul,  ///< Dst = A * B
  Div,  ///< Dst = A / B
  Neg,  ///< Dst = -A
  Loop, ///< do $i<LoopVar> = Lo, Hi
  End,  ///< end do
};

/// Returns true for Add/Sub/Mul/Div.
bool isBinary(Op O);

/// One i-code instruction.
struct Instr {
  Op Opcode = Op::Copy;
  Operand Dst, A, B;
  // Loop fields (Opcode == Loop).
  int LoopVar = 0;
  std::int64_t Lo = 0, Hi = 0;
  /// Set on Loop instructions the unrolling pass should fully unroll
  /// (#unroll on, or the -B threshold at expansion time).
  bool UnrollFlag = false;

  static Instr copy(Operand Dst, Operand A);
  static Instr bin(Op Opcode, Operand Dst, Operand A, Operand B);
  static Instr neg(Operand Dst, Operand A);
  static Instr loop(int LoopVar, std::int64_t Lo, std::int64_t Hi,
                    bool UnrollFlag = false);
  static Instr end();
};

//===----------------------------------------------------------------------===//
// Programs
//===----------------------------------------------------------------------===//

/// Element type of the data the program manipulates.
enum class DataType { Complex, Real };

/// A complete i-code program for one SPL formula: the subroutine body plus
/// symbol information (temporary vectors, scalar temps, constant tables).
struct Program {
  std::string SubName = "sub";
  std::int64_t InSize = 0;
  std::int64_t OutSize = 0;

  /// Element type. Real means every constant has zero imaginary part and
  /// buffers hold doubles (either #datatype real, or after complex-to-real
  /// lowering).
  DataType Type = DataType::Complex;

  /// True once the complex-to-real pass has run: logical complex elements
  /// are stored as interleaved (re,im) pairs and Type is Real.
  bool LoweredToReal = false;

  std::vector<Instr> Body;

  /// Sizes of temporary vectors; index 0 is vector id FirstTempVec.
  std::vector<std::int64_t> TempVecSizes;

  /// Number of scalar floating temporaries in use.
  int NumFltTemps = 0;

  /// Number of loop variables ever allocated (ids are < this).
  int NumLoopVars = 0;

  /// Constant tables produced by intrinsic evaluation.
  std::vector<std::vector<Cplx>> Tables;

  /// Size of temporary vector with the given vector id (>= FirstTempVec).
  std::int64_t tempVecSize(int VecId) const {
    assert(VecId >= FirstTempVec &&
           static_cast<size_t>(VecId - FirstTempVec) < TempVecSizes.size() &&
           "not a temporary vector id");
    return TempVecSizes[VecId - FirstTempVec];
  }

  /// Number of arithmetic instructions (Add/Sub/Mul/Div/Neg), counting loop
  /// bodies once per iteration. This is the static-times-trip-count count
  /// used by the operation-count cost model.
  std::uint64_t dynamicOpCount() const;

  /// Number of instructions in the body, loops counted once.
  size_t staticSize() const { return Body.size(); }

  /// Checks structural invariants (balanced loops, operand kinds in range,
  /// affine subscripts referencing live loop vars). Returns an empty string
  /// on success, else a description of the first violation.
  std::string verify() const;

  /// Renders the program in the paper's i-code style.
  std::string print() const;
};

} // namespace icode
} // namespace spl

#endif // SPL_ICODE_ICODE_H
