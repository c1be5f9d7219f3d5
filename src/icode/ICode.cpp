//===- icode/ICode.cpp - The SPL intermediate code -------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "icode/ICode.h"

#include "support/StrUtil.h"
#include "templates/TemplateDef.h"

#include <algorithm>
#include <cmath>

using namespace spl;
using namespace spl::icode;

//===----------------------------------------------------------------------===//
// IntExpr
//===----------------------------------------------------------------------===//

IntExprRef IntExpr::mkConst(std::int64_t C) {
  auto E = std::make_shared<IntExpr>();
  E->K = Const;
  E->C = C;
  return E;
}

IntExprRef IntExpr::mkVar(int V) {
  auto E = std::make_shared<IntExpr>();
  E->K = Var;
  E->V = V;
  return E;
}

IntExprRef IntExpr::mkBin(Kind K, IntExprRef L, IntExprRef R) {
  assert(L && R && "binary integer expression needs two operands");
  // Constant-fold eagerly; intrinsic arguments are often fully constant.
  if (L->K == Const && R->K == Const) {
    std::optional<std::int64_t> V = apply(K, L->C, R->C);
    assert(V && "integer expression fails; lowerInt bounds every one");
    return mkConst(V.value_or(0));
  }
  auto E = std::make_shared<IntExpr>();
  E->K = K;
  E->L = std::move(L);
  E->R = std::move(R);
  return E;
}

std::optional<std::int64_t> IntExpr::apply(Kind K, std::int64_t A,
                                           std::int64_t B) {
  assert(K != Const && K != Var && "not a binary integer operation");
  std::int64_t R = 0;
  if (K == Add   ? __builtin_add_overflow(A, B, &R)
      : K == Sub ? __builtin_sub_overflow(A, B, &R)
      : K == Mul ? __builtin_mul_overflow(A, B, &R)
                 : B == 0 || (K == Div && A == INT64_MIN && B == -1))
    return std::nullopt;
  if (K == Div)
    return A / B;
  if (K == Mod)
    return B == -1 ? 0 : A % B; // INT64_MIN % -1 traps in hardware.
  return R;
}

std::int64_t IntExpr::eval(const std::vector<std::int64_t> &Vars) const {
  switch (K) {
  case Const:
    return C;
  case Var:
    assert(static_cast<size_t>(V) < Vars.size() && "loop var out of range");
    return Vars[V];
  default: {
    std::optional<std::int64_t> V = apply(K, L->eval(Vars), R->eval(Vars));
    assert(V && "integer expression fails; lowerInt bounds every one");
    return V.value_or(0);
  }
  }
}

void IntExpr::collectVars(std::vector<int> &Out) const {
  switch (K) {
  case Const:
    return;
  case Var:
    Out.push_back(V);
    return;
  default:
    L->collectVars(Out);
    R->collectVars(Out);
    return;
  }
}

IntExprRef IntExpr::substVar(int Target, const IntExprRef &E) const {
  switch (K) {
  case Const:
    return mkConst(C);
  case Var:
    return V == Target ? E : mkVar(V);
  default:
    return mkBin(K, L->substVar(Target, E), R->substVar(Target, E));
  }
}

std::string IntExpr::str() const {
  switch (K) {
  case Const:
    return std::to_string(C);
  case Var:
    return "$i" + std::to_string(V);
  default: {
    const char *Sym = K == Add   ? "+"
                      : K == Sub ? "-"
                      : K == Mul ? "*"
                      : K == Div ? "/"
                                 : "%";
    std::string Out = "(";
    Out += L->str();
    Out += Sym;
    Out += R->str();
    Out += ")";
    return Out;
  }
  }
}

//===----------------------------------------------------------------------===//
// Lowering integer expressions
//===----------------------------------------------------------------------===//

namespace {

/// Bounds \p Out of A K B over the bounds of A and B, for a divisor range
/// without 0. Each operation is monotone in each operand while the divisor
/// keeps one sign, so its extremes lie at the corners; A % B lies within
/// |B| - 1 of 0, on A's side. False when a corner overflows.
bool bound(IntExpr::Kind K, const IntValue &A, const IntValue &B,
           IntValue &Out) {
  if (K == IntExpr::Mod) {
    // |B| - 1, written so that B = INT64_MIN does not overflow.
    std::int64_t M = B.Lo < 0 ? -(B.Lo + 1) : B.Hi - 1;
    Out.Lo = std::max(std::min(A.Lo, std::int64_t(0)), -M);
    Out.Hi = std::min(std::max(A.Hi, std::int64_t(0)), M);
    return true;
  }
  Out.Lo = INT64_MAX;
  Out.Hi = INT64_MIN;
  for (std::int64_t X : {A.Lo, A.Hi}) {
    for (std::int64_t Y : {B.Lo, B.Hi}) {
      std::optional<std::int64_t> V = IntExpr::apply(K, X, Y);
      if (!V)
        return false;
      Out.Lo = std::min(Out.Lo, *V);
      Out.Hi = std::max(Out.Hi, *V);
    }
  }
  return true;
}

} // namespace

std::optional<IntValue> icode::lowerInt(const tpl::TExpr &E,
                                        const IntNames &Names,
                                        IntFault &Fault) {
  using tpl::TExpr;
  auto Fail = [&](const char *Message, SourceLoc Loc,
                  bool Overflow = false) -> std::optional<IntValue> {
    Fault = {Loc, Message, Overflow};
    return std::nullopt;
  };

  switch (E.K) {
  case TExpr::Num: {
    if (E.Int)
      return IntValue::constant(*E.Int);
    double R = E.NumVal.real();
    if (E.NumVal.imag() != 0 || R != std::floor(R))
      return Fail("expected an integer constant", E.Loc);
    if (R < -0x1p63 || R >= 0x1p63) // The cast below would be undefined.
      return Fail("integer constant out of range", E.Loc);
    return IntValue::constant(static_cast<std::int64_t>(R));
  }
  case TExpr::Sym: {
    std::optional<IntValue> V;
    if (Names)
      V = Names(E);
    return V ? V : Fail(nullptr, E.Loc);
  }
  case TExpr::Add:
  case TExpr::Sub:
  case TExpr::Mul:
  case TExpr::Div:
  case TExpr::Mod:
  case TExpr::Neg: {
    // -b is 0 - b.
    std::optional<IntValue> A = E.K == TExpr::Neg
                                    ? IntValue::constant(0)
                                    : lowerInt(*E.Args[0], Names, Fault);
    std::optional<IntValue> B;
    if (!A || !(B = lowerInt(*E.Args.back(), Names, Fault)))
      return std::nullopt;
    IntExpr::Kind K = E.K == TExpr::Add   ? IntExpr::Add
                      : E.K == TExpr::Mul ? IntExpr::Mul
                      : E.K == TExpr::Div ? IntExpr::Div
                      : E.K == TExpr::Mod ? IntExpr::Mod
                                          : IntExpr::Sub;
    if ((K == IntExpr::Div || K == IntExpr::Mod) && B->Lo <= 0 && B->Hi >= 0)
      return Fail(B->isConst() ? "division by zero in integer expression"
                               : "the divisor can be zero within the loop "
                                 "bounds",
                  E.Loc);
    if (A->isConst() && B->isConst()) {
      if (std::optional<std::int64_t> V = IntExpr::apply(K, A->Lo, B->Lo))
        return IntValue::constant(*V);
      return Fail("integer overflow in integer expression", E.Loc, true);
    }
    IntValue Out;
    if (!bound(K, *A, *B, Out))
      return Fail("integer overflow possible within the loop bounds", E.Loc,
                  true);
    Out.E = IntExpr::mkBin(K, A->expr(), B->expr());
    return Out;
  }
  case TExpr::Not:
  case TExpr::And:
  case TExpr::Or:
  case TExpr::EQ:
  case TExpr::NE:
  case TExpr::LT:
  case TExpr::LE:
  case TExpr::GT:
  case TExpr::GE: {
    // No context admits these over loop variables.
    auto Operand = [&](const TExpr &Arg) -> std::optional<std::int64_t> {
      std::optional<IntValue> V = lowerInt(Arg, Names, Fault);
      assert((!V || V->isConst()) && "condition operator over loop indices");
      return V ? std::optional(V->Lo) : std::nullopt;
    };
    std::optional<std::int64_t> A = Operand(*E.Args[0]), B;
    // A left operand that fails fails the whole, even where the right one
    // would decide.
    if (!A || E.K == TExpr::Not)
      return A ? std::optional(IntValue::constant(*A == 0)) : std::nullopt;
    if ((E.K == TExpr::And && *A == 0) || (E.K == TExpr::Or && *A != 0))
      return IntValue::constant(E.K == TExpr::Or);
    if (!(B = Operand(*E.Args[1])))
      return std::nullopt;
    return IntValue::constant(E.K == TExpr::EQ   ? *A == *B
                              : E.K == TExpr::NE ? *A != *B
                              : E.K == TExpr::LT ? *A < *B
                              : E.K == TExpr::LE ? *A <= *B
                              : E.K == TExpr::GT ? *A > *B
                              : E.K == TExpr::GE ? *A >= *B
                                                 : *B != 0);
  }
  default: // VecRef, Call, Complex.
    return Fail("expected an integer expression", E.Loc);
  }
}

//===----------------------------------------------------------------------===//
// Affine
//===----------------------------------------------------------------------===//

Affine Affine::var(int V, std::int64_t Coef) {
  Affine A;
  if (Coef != 0)
    A.Terms.push_back({V, Coef});
  return A;
}

Affine Affine::plus(const Affine &O) const {
  Affine Out = *this;
  Out.Base += O.Base;
  Out.Terms.insert(Out.Terms.end(), O.Terms.begin(), O.Terms.end());
  Out.normalize();
  return Out;
}

Affine Affine::plusConst(std::int64_t C) const {
  Affine Out = *this;
  Out.Base += C;
  return Out;
}

Affine Affine::scaled(std::int64_t C) const {
  Affine Out;
  Out.Base = Base * C;
  if (C != 0)
    for (const auto &[V, Coef] : Terms)
      Out.Terms.push_back({V, Coef * C});
  return Out;
}

Affine Affine::substVar(int V, const Affine &E) const {
  Affine Out;
  Out.Base = Base;
  for (const auto &[TV, Coef] : Terms) {
    if (TV == V) {
      Out = Out.plus(E.scaled(Coef));
    } else {
      Out.Terms.push_back({TV, Coef});
    }
  }
  Out.normalize();
  return Out;
}

std::int64_t Affine::eval(const std::vector<std::int64_t> &Vars) const {
  std::int64_t Acc = Base;
  for (const auto &[V, Coef] : Terms) {
    assert(static_cast<size_t>(V) < Vars.size() && "loop var out of range");
    Acc += Coef * Vars[V];
  }
  return Acc;
}

std::int64_t Affine::coefOf(int V) const {
  for (const auto &[TV, Coef] : Terms)
    if (TV == V)
      return Coef;
  return 0;
}

bool Affine::usesVar(int V) const { return coefOf(V) != 0; }

void Affine::normalize() {
  std::sort(Terms.begin(), Terms.end());
  std::vector<std::pair<int, std::int64_t>> Merged;
  for (const auto &[V, Coef] : Terms) {
    if (!Merged.empty() && Merged.back().first == V)
      Merged.back().second += Coef;
    else
      Merged.push_back({V, Coef});
  }
  Merged.erase(std::remove_if(Merged.begin(), Merged.end(),
                              [](const auto &T) { return T.second == 0; }),
               Merged.end());
  Terms = std::move(Merged);
}

std::string Affine::str() const {
  std::string Out;
  for (const auto &[V, Coef] : Terms) {
    if (!Out.empty())
      Out += Coef < 0 ? "-" : "+";
    else if (Coef < 0)
      Out += "-";
    std::int64_t A = Coef < 0 ? -Coef : Coef;
    if (A != 1)
      Out += std::to_string(A) + "*";
    Out += "$i" + std::to_string(V);
  }
  if (Out.empty())
    return std::to_string(Base);
  if (Base > 0)
    Out += "+" + std::to_string(Base);
  else if (Base < 0)
    Out += std::to_string(Base);
  return Out;
}

//===----------------------------------------------------------------------===//
// Operand
//===----------------------------------------------------------------------===//

Operand Operand::fltConst(Cplx V) {
  Operand O;
  O.Kind = OpndKind::FltConst;
  O.FConst = V;
  return O;
}

Operand Operand::fltTemp(int Id) {
  Operand O;
  O.Kind = OpndKind::FltTemp;
  O.Id = Id;
  return O;
}

Operand Operand::vecElem(int VecId, Affine Subs) {
  Operand O;
  O.Kind = OpndKind::VecElem;
  O.Id = VecId;
  O.Subs = std::move(Subs);
  return O;
}

Operand Operand::tableElem(int TableId, Affine Subs) {
  Operand O;
  O.Kind = OpndKind::TableElem;
  O.Id = TableId;
  O.Subs = std::move(Subs);
  return O;
}

Operand Operand::intrinsic(std::string Name, std::vector<IntExprRef> Args) {
  Operand O;
  O.Kind = OpndKind::Intrinsic;
  O.Name = std::move(Name);
  O.Args = std::move(Args);
  return O;
}

bool icode::operator==(const Operand &A, const Operand &B) {
  if (A.Kind != B.Kind)
    return false;
  switch (A.Kind) {
  case OpndKind::None:
    return true;
  case OpndKind::FltConst:
    return A.FConst == B.FConst;
  case OpndKind::FltTemp:
    return A.Id == B.Id;
  case OpndKind::VecElem:
  case OpndKind::TableElem:
    return A.Id == B.Id && A.Subs == B.Subs;
  case OpndKind::Intrinsic:
    // Intrinsic operands are never compared structurally (they are folded
    // before optimization); treat distinct calls as unequal.
    return false;
  }
  return false;
}

std::string Operand::str() const {
  switch (Kind) {
  case OpndKind::None:
    return "<none>";
  case OpndKind::FltConst:
    return formatComplex(FConst);
  case OpndKind::FltTemp:
    return "$f" + std::to_string(Id);
  case OpndKind::VecElem: {
    std::string Base = Id == VecIn    ? "$in"
                       : Id == VecOut ? "$out"
                                      : "$t" + std::to_string(Id - FirstTempVec);
    return Base + "(" + Subs.str() + ")";
  }
  case OpndKind::TableElem:
    return "$tab" + std::to_string(Id) + "(" + Subs.str() + ")";
  case OpndKind::Intrinsic: {
    std::string Out = Name + "(";
    for (size_t I = 0; I != Args.size(); ++I) {
      if (I)
        Out += " ";
      Out += Args[I]->str();
    }
    return Out + ")";
  }
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Instr
//===----------------------------------------------------------------------===//

bool icode::isBinary(Op O) {
  return O == Op::Add || O == Op::Sub || O == Op::Mul || O == Op::Div;
}

Instr Instr::copy(Operand Dst, Operand A) {
  Instr I;
  I.Opcode = Op::Copy;
  I.Dst = std::move(Dst);
  I.A = std::move(A);
  return I;
}

Instr Instr::bin(Op Opcode, Operand Dst, Operand A, Operand B) {
  assert(isBinary(Opcode) && "expected a binary opcode");
  Instr I;
  I.Opcode = Opcode;
  I.Dst = std::move(Dst);
  I.A = std::move(A);
  I.B = std::move(B);
  return I;
}

Instr Instr::neg(Operand Dst, Operand A) {
  Instr I;
  I.Opcode = Op::Neg;
  I.Dst = std::move(Dst);
  I.A = std::move(A);
  return I;
}

Instr Instr::loop(int LoopVar, std::int64_t Lo, std::int64_t Hi,
                  bool UnrollFlag) {
  Instr I;
  I.Opcode = Op::Loop;
  I.LoopVar = LoopVar;
  I.Lo = Lo;
  I.Hi = Hi;
  I.UnrollFlag = UnrollFlag;
  return I;
}

Instr Instr::end() {
  Instr I;
  I.Opcode = Op::End;
  return I;
}

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

std::uint64_t Program::dynamicOpCount() const {
  std::uint64_t Count = 0;
  std::vector<std::uint64_t> TripStack = {1};
  for (const Instr &I : Body) {
    switch (I.Opcode) {
    case Op::Loop: {
      std::uint64_t Trip =
          I.Hi >= I.Lo ? static_cast<std::uint64_t>(I.Hi - I.Lo + 1) : 0;
      TripStack.push_back(TripStack.back() * Trip);
      break;
    }
    case Op::End:
      assert(TripStack.size() > 1 && "unbalanced end");
      TripStack.pop_back();
      break;
    case Op::Copy:
      break;
    default:
      Count += TripStack.back();
      break;
    }
  }
  return Count;
}

std::string Program::verify() const {
  int Depth = 0;
  std::vector<int> OpenVars;
  auto CheckOperand = [&](const Operand &O, bool IsDst) -> std::string {
    switch (O.Kind) {
    case OpndKind::None:
      return "unexpected empty operand";
    case OpndKind::FltConst:
      if (IsDst)
        return "constant used as destination";
      if (Type == DataType::Real && O.FConst.imag() != 0)
        return "complex constant in a real program";
      return "";
    case OpndKind::FltTemp:
      if (O.Id < 0 || O.Id >= NumFltTemps)
        return "float temp id out of range";
      return "";
    case OpndKind::VecElem: {
      if (O.Id != VecIn && O.Id != VecOut &&
          (O.Id < FirstTempVec ||
           static_cast<size_t>(O.Id - FirstTempVec) >= TempVecSizes.size()))
        return "vector id out of range";
      for (const auto &[V, Coef] : O.Subs.Terms) {
        (void)Coef;
        if (std::find(OpenVars.begin(), OpenVars.end(), V) == OpenVars.end())
          return "subscript references a loop variable not in scope";
      }
      return "";
    }
    case OpndKind::TableElem:
      if (O.Id < 0 || static_cast<size_t>(O.Id) >= Tables.size())
        return "table id out of range";
      if (IsDst)
        return "table element used as destination";
      return "";
    case OpndKind::Intrinsic:
      if (IsDst)
        return "intrinsic call used as destination";
      return "";
    }
    return "";
  };

  for (size_t Idx = 0; Idx != Body.size(); ++Idx) {
    const Instr &I = Body[Idx];
    std::string Err;
    switch (I.Opcode) {
    case Op::Loop:
      if (I.LoopVar < 0 || I.LoopVar >= NumLoopVars)
        return "loop variable id out of range at instruction " +
               std::to_string(Idx);
      ++Depth;
      OpenVars.push_back(I.LoopVar);
      break;
    case Op::End:
      if (Depth == 0)
        return "end without matching loop at instruction " +
               std::to_string(Idx);
      --Depth;
      OpenVars.pop_back();
      break;
    case Op::Copy:
    case Op::Neg:
      Err = CheckOperand(I.Dst, /*IsDst=*/true);
      if (Err.empty())
        Err = CheckOperand(I.A, /*IsDst=*/false);
      break;
    default:
      Err = CheckOperand(I.Dst, /*IsDst=*/true);
      if (Err.empty())
        Err = CheckOperand(I.A, /*IsDst=*/false);
      if (Err.empty())
        Err = CheckOperand(I.B, /*IsDst=*/false);
      break;
    }
    if (!Err.empty())
      return Err + " at instruction " + std::to_string(Idx);
  }
  if (Depth != 0)
    return "unclosed loop at end of program";
  return "";
}
