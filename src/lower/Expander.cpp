//===- lower/Expander.cpp - Formula-to-icode expansion ----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "lower/Expander.h"

#include "ir/Builder.h"
#include "opt/Pipeline.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <string_view>

using namespace spl;
using namespace spl::lower;
using namespace spl::icode;

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

std::int64_t lower::computeVecExtent(const Program &Prog, int VecId) {
  // Ranges of loop variables currently in scope: (var, lo, hi).
  std::vector<std::tuple<int, std::int64_t, std::int64_t>> Ranges;
  std::int64_t MaxIdx = -1;

  auto Consider = [&](const Operand &O) {
    if (O.Kind != OpndKind::VecElem || O.Id != VecId)
      return;
    std::int64_t V = O.Subs.Base;
    for (const auto &[Var, Coef] : O.Subs.Terms) {
      std::int64_t Lo = 0, Hi = 0;
      for (const auto &[RV, RLo, RHi] : Ranges) {
        if (RV == Var) {
          Lo = RLo;
          Hi = RHi;
          break;
        }
      }
      V += Coef * (Coef > 0 ? Hi : Lo);
    }
    MaxIdx = std::max(MaxIdx, V);
  };

  for (const Instr &I : Prog.Body) {
    switch (I.Opcode) {
    case Op::Loop:
      Ranges.push_back({I.LoopVar, I.Lo, I.Hi});
      break;
    case Op::End:
      assert(!Ranges.empty() && "unbalanced loop nest");
      Ranges.pop_back();
      break;
    default:
      Consider(I.Dst);
      Consider(I.A);
      Consider(I.B);
      break;
    }
  }
  return MaxIdx + 1;
}

bool Expander::fail(SourceLoc Loc, std::string Message) {
  Diags.error(Loc, std::move(Message));
  return false;
}

int Expander::allocTempVec(std::int64_t Size) {
  P->TempVecSizes.push_back(Size);
  return FirstTempVec + static_cast<int>(P->TempVecSizes.size()) - 1;
}

Operand Expander::mapVec(const VecMap &M, const Affine &Sub) const {
  return Operand::vecElem(M.VecId, M.Offset.plus(Sub.scaled(M.Stride)));
}

bool Expander::checkRealConst(Cplx V, SourceLoc Loc) {
  if (Opts.Datatype == DataType::Real && V.imag() != 0)
    return fail(Loc, "complex constant in a #datatype real program");
  return true;
}

//===----------------------------------------------------------------------===//
// Size inference
//===----------------------------------------------------------------------===//

/// The value of pattern variable \p Name ("n_") or of a size property
/// ("A_.in_size") under \p Binds; nullopt when unbound or unsizable.
std::optional<IntValue>
Expander::bindingValue(const tpl::Bindings &Binds, const std::string &Name) {
  auto Dot = Name.find('.');
  if (Dot == std::string::npos) {
    auto It = Binds.Ints.find(Name);
    if (It == Binds.Ints.end())
      return std::nullopt;
    return IntValue::constant(It->second);
  }
  auto It = Binds.Formulas.find(Name.substr(0, Dot));
  if (It == Binds.Formulas.end())
    return std::nullopt;
  auto Sizes = inferSizes(It->second);
  if (!Sizes)
    return std::nullopt;
  std::string_view Prop = std::string_view(Name).substr(Dot + 1);
  if (Prop == "in_size")
    return IntValue::constant(Sizes->first);
  if (Prop == "out_size")
    return IntValue::constant(Sizes->second);
  return std::nullopt;
}

/// True when \p Def has no condition or its condition is nonzero under
/// \p Binds. A condition that does not lower (an unbound name, a zero
/// divisor, an overflow) does not hold.
bool Expander::conditionHolds(const tpl::TemplateDef &Def,
                              const tpl::Bindings &Binds) {
  if (!Def.Condition)
    return true;
  IntFault Fault;
  std::optional<IntValue> V = icode::lowerInt(
      *Def.Condition,
      [this, &Binds](const tpl::TExpr &Name) {
        return bindingValue(Binds, Name.Name);
      },
      Fault);
  return V && V->Lo != 0;
}

std::optional<std::pair<std::int64_t, std::int64_t>>
Expander::inferSizes(const FormulaRef &F) {
  assert(F && "null formula");
  if (F->inSize() >= 0)
    return std::make_pair(F->inSize(), F->outSize());

  std::string Key = F->print();
  auto Cached = SizeCache.find(Key);
  if (Cached != SizeCache.end())
    return Cached->second;

  std::optional<std::pair<std::int64_t, std::int64_t>> Result;
  switch (F->kind()) {
  case FKind::Compose: {
    auto A = inferSizes(F->child(0)), B = inferSizes(F->child(1));
    if (A && B)
      Result = std::make_pair(B->first, A->second);
    break;
  }
  case FKind::Tensor: {
    auto A = inferSizes(F->child(0)), B = inferSizes(F->child(1));
    if (A && B)
      Result = std::make_pair(A->first * B->first, A->second * B->second);
    break;
  }
  case FKind::DirectSum: {
    auto A = inferSizes(F->child(0)), B = inferSizes(F->child(1));
    if (A && B)
      Result = std::make_pair(A->first + B->first, A->second + B->second);
    break;
  }
  case FKind::Realify:
    if (auto A = inferSizes(F->child(0)))
      Result = std::make_pair(2 * A->first, 2 * A->second);
    break;
  case FKind::UserParam:
    Result = inferUserParamSizes(F);
    break;
  default:
    break;
  }
  if (Result)
    SizeCache.insert({std::move(Key), *Result});
  return Result;
}

std::optional<std::pair<std::int64_t, std::int64_t>>
Expander::inferUserParamSizes(const FormulaRef &F) {
  // Instantiate the matching template into a scratch program and measure
  // how far into $in/$out it reaches.
  const auto &Defs = Registry.defs();
  for (auto It = Defs.rbegin(); It != Defs.rend(); ++It) {
    tpl::Bindings Binds;
    if (!matchPattern(It->Pattern, F, Binds))
      continue;
    if (!conditionHolds(*It, Binds))
      continue;

    Program Scratch;
    Scratch.Type = Opts.Datatype;
    Program *SavedP = P;
    P = &Scratch;
    VecMap In{VecIn, Affine(0), 1}, Out{VecOut, Affine(0), 1};
    bool Ok = instantiate(*It, std::move(Binds), F, In, Out,
                          /*Unroll=*/false);
    P = SavedP;
    if (!Ok)
      return std::nullopt;
    return std::make_pair(computeVecExtent(Scratch, VecIn),
                          computeVecExtent(Scratch, VecOut));
  }
  Diags.error(F->loc(), "no template matches user-defined matrix " +
                            F->print());
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Top level
//===----------------------------------------------------------------------===//

std::optional<Program> Expander::expand(const FormulaRef &F,
                                        const ExpandOptions &ExpandOpts) {
  assert(F && "null formula");
  if (F->isPattern()) {
    Diags.error(F->loc(), "cannot compile a formula containing pattern "
                          "variables");
    return std::nullopt;
  }

  Program Prog;
  Opts = ExpandOpts;
  P = &Prog;
  Prog.SubName = Opts.SubName;
  Prog.Type = Opts.Datatype;

  auto Sizes = inferSizes(F);
  if (!Sizes) {
    P = nullptr;
    if (!Diags.hasErrors())
      Diags.error(F->loc(), "cannot determine the size of " + F->print());
    return std::nullopt;
  }
  Prog.InSize = Sizes->first;
  Prog.OutSize = Sizes->second;

  VecMap In{VecIn, Affine(0), 1}, Out{VecOut, Affine(0), 1};
  bool Ok = expandInto(F, In, Out, /*UnrollActive=*/false);
  P = nullptr;
  if (!Ok)
    return std::nullopt;

  // Finalize temporary vectors that were written directly (size -1) by
  // measuring their actual extent.
  for (size_t T = 0; T != Prog.TempVecSizes.size(); ++T)
    if (Prog.TempVecSizes[T] < 0)
      Prog.TempVecSizes[T] =
          computeVecExtent(Prog, FirstTempVec + static_cast<int>(T));

  std::string Err = Prog.verify();
  assert(Err.empty() && "expander produced invalid i-code");
  (void)Err;
  return Prog;
}

bool Expander::expandInto(const FormulaRef &F, const VecMap &In,
                          const VecMap &Out, bool UnrollActive) {
  // Per-formula unroll decision: an explicit #unroll hint wins; otherwise a
  // formula small enough for the -B threshold turns unrolling on, and an
  // enclosing unrolled formula keeps it on.
  bool Unroll = UnrollActive;
  if (!Unroll && Opts.UnrollThreshold > 0) {
    auto Sizes = inferSizes(F);
    if (Sizes && Sizes->first <= Opts.UnrollThreshold)
      Unroll = true;
  }
  if (F->unrollHint())
    Unroll = *F->unrollHint();

  // Templates, most recent definition first.
  const auto &Defs = Registry.defs();
  for (auto It = Defs.rbegin(); It != Defs.rend(); ++It) {
    tpl::Bindings Binds;
    if (!matchPattern(It->Pattern, F, Binds))
      continue;
    if (!conditionHolds(*It, Binds))
      continue;
    return instantiate(*It, std::move(Binds), F, In, Out, Unroll);
  }

  // Native rules.
  switch (F->kind()) {
  case FKind::GenMatrix:
    return expandGenMatrix(*F, In, Out);
  case FKind::Diagonal:
    return expandDiagonal(*F, In, Out);
  case FKind::Permutation:
    return expandPermutation(*F, In, Out);
  case FKind::Tensor:
    return expandTensorSplit(F, In, Out, Unroll);
  case FKind::Realify:
    return expandRealify(F, In, Out, Unroll);
  default:
    return fail(F->loc(), "no template matches formula " + F->print());
  }
}

//===----------------------------------------------------------------------===//
// Template instantiation
//===----------------------------------------------------------------------===//

bool Expander::instantiate(const tpl::TemplateDef &Def, tpl::Bindings Binds,
                           const FormulaRef &F, const VecMap &In,
                           const VecMap &Out, bool Unroll) {
  Scope S;
  S.Binds = std::move(Binds);
  S.F = F.get();
  S.In = In;
  S.Out = Out;

  for (const tpl::TStmt &Stmt : Def.Body)
    if (!emitStmt(S, Stmt, Unroll))
      return false;
  return true;
}

bool Expander::emitStmt(Scope &S, const tpl::TStmt &Stmt, bool Unroll) {
  switch (Stmt.K) {
  case tpl::TStmt::Do: {
    auto First = lowerInt(S, Stmt.Lo), Last = lowerInt(S, Stmt.Hi);
    if (!First || !Last)
      return false;
    if (!First->isConst() || !Last->isConst())
      return fail(Stmt.Loc, "loop bounds must be compile-time constants");
    std::int64_t Lo = First->Lo, Hi = Last->Lo;
    int Var = freshLoopVar();
    // An empty loop runs nothing; bounding it over [Hi, Lo] is safe.
    S.Ints[Stmt.LoopVar] = {IntExpr::mkVar(Var), std::min(Lo, Hi),
                            std::max(Lo, Hi)};
    P->Body.push_back(Instr::loop(Var, Lo, Hi, Unroll));
    return true;
  }
  case tpl::TStmt::EndDo:
    P->Body.push_back(Instr::end());
    return true;
  case tpl::TStmt::Assign: {
    const tpl::TExprRef &Lhs = Stmt.Lhs;
    if (Lhs->K == tpl::TExpr::VecRef) {
      auto Dst = vecOperand(S, Lhs->Name, Lhs->Args[0], /*IsWrite=*/true,
                            Lhs->Loc);
      if (!Dst)
        return false;
      return emitAssign(S, *Dst, Stmt.Rhs);
    }
    assert(Lhs->K == tpl::TExpr::Sym && "parser guarantees sym or vecref");
    if (startsWith(Lhs->Name, "$f")) {
      auto [It, Inserted] = S.FltTemps.insert({Lhs->Name, 0});
      if (Inserted)
        It->second = freshFltTemp();
      return emitAssign(S, Operand::fltTemp(It->second), Stmt.Rhs);
    }
    if (startsWith(Lhs->Name, "$r")) {
      auto V = lowerInt(S, Stmt.Rhs);
      if (!V)
        return false;
      S.Ints[Lhs->Name] = *V;
      return true;
    }
    return fail(Stmt.Loc, "assignment target must be $out(...), $tK(...), "
                          "$fK or $rK");
  }
  case tpl::TStmt::CallFormula:
    return emitCall(S, Stmt, Unroll);
  }
  return false;
}

bool Expander::emitAssign(Scope &S, const Operand &Dst,
                          const tpl::TExprRef &Rhs) {
  switch (Rhs->K) {
  case tpl::TExpr::Add:
  case tpl::TExpr::Sub:
  case tpl::TExpr::Mul:
  case tpl::TExpr::Div: {
    auto A = flattenOperand(S, Rhs->Args[0]);
    if (!A)
      return false;
    auto B = flattenOperand(S, Rhs->Args[1]);
    if (!B)
      return false;
    Op Opcode = Rhs->K == tpl::TExpr::Add   ? Op::Add
                : Rhs->K == tpl::TExpr::Sub ? Op::Sub
                : Rhs->K == tpl::TExpr::Mul ? Op::Mul
                                            : Op::Div;
    P->Body.push_back(Instr::bin(Opcode, Dst, *A, *B));
    return true;
  }
  case tpl::TExpr::Mod:
    return fail(Rhs->Loc, "'%' is not a floating-point operation");
  case tpl::TExpr::Neg: {
    auto A = flattenOperand(S, Rhs->Args[0]);
    if (!A)
      return false;
    P->Body.push_back(Instr::neg(Dst, *A));
    return true;
  }
  default: {
    auto A = floatOperand(S, Rhs);
    if (!A)
      return false;
    P->Body.push_back(Instr::copy(Dst, *A));
    return true;
  }
  }
}

std::optional<Operand> Expander::flattenOperand(Scope &S,
                                                const tpl::TExprRef &E) {
  switch (E->K) {
  case tpl::TExpr::Add:
  case tpl::TExpr::Sub:
  case tpl::TExpr::Mul:
  case tpl::TExpr::Div:
  case tpl::TExpr::Mod: // emitAssign rejects it.
  case tpl::TExpr::Neg: {
    Operand Tmp = Operand::fltTemp(freshFltTemp());
    if (!emitAssign(S, Tmp, E))
      return std::nullopt;
    return Tmp;
  }
  default:
    return floatOperand(S, E);
  }
}

/// True when \p Rule holds at every point of the box the orders' ranges
/// span. Positive orders only; a box of more than 4096 points is not
/// searched, so it does not prove the rule.
static bool orderRuleHolds(const icode::OrderRule &Rule,
                           const std::vector<IntValue> &Orders) {
  std::int64_t Points = 1;
  for (const IntValue &O : Orders)
    if (O.Hi - O.Lo >= 4096 || (Points *= O.Hi - O.Lo + 1) > 4096)
      return false;
  std::vector<std::int64_t> At;
  for (const IntValue &O : Orders)
    At.push_back(O.Lo);
  for (;;) {
    if (!Rule.Holds(At.data()))
      return false;
    std::size_t I = 0;
    while (I != At.size() && At[I] == Orders[I].Hi)
      At[I] = Orders[I].Lo, ++I;
    if (I == At.size())
      return true;
    ++At[I];
  }
}

std::optional<Operand> Expander::floatOperand(Scope &S,
                                              const tpl::TExprRef &E) {
  switch (E->K) {
  case tpl::TExpr::Num:
    if (!checkRealConst(E->NumVal, E->Loc))
      return std::nullopt;
    return Operand::fltConst(E->NumVal);
  case tpl::TExpr::Sym: {
    if (startsWith(E->Name, "$f")) {
      auto It = S.FltTemps.find(E->Name);
      if (It == S.FltTemps.end()) {
        fail(E->Loc, "use of unassigned scalar " + E->Name);
        return std::nullopt;
      }
      return Operand::fltTemp(It->second);
    }
    // Integer-valued names are usable in floating context when constant.
    auto V = lowerInt(S, E);
    if (!V)
      return std::nullopt;
    if (!V->isConst()) {
      fail(E->Loc, "non-constant integer value in floating-point context");
      return std::nullopt;
    }
    return Operand::fltConst(Cplx(static_cast<double>(V->Lo), 0));
  }
  case tpl::TExpr::VecRef:
    return vecOperand(S, E->Name, E->Args[0], /*IsWrite=*/false, E->Loc);
  case tpl::TExpr::Call: {
    if (!Intrinsics.contains(E->Name)) {
      fail(E->Loc, "unknown intrinsic function '" + E->Name + "'");
      return std::nullopt;
    }
    if (Intrinsics.arity(E->Name) != E->Args.size()) {
      fail(E->Loc, "intrinsic '" + E->Name + "' expects " +
                       std::to_string(Intrinsics.arity(E->Name)) +
                       " arguments");
      return std::nullopt;
    }
    std::vector<IntExprRef> Args;
    std::vector<int> Vars;
    std::vector<IntValue> Orders;
    for (const tpl::TExprRef &A : E->Args) {
      auto IA = lowerInt(S, A);
      if (!IA)
        return std::nullopt;
      // An order is a divisor of the intrinsic (W's k mod n, ...).
      if (Args.size() < Intrinsics.orders(E->Name)) {
        if (IA->Lo <= 0) {
          fail(A->Loc, "the order of intrinsic '" + E->Name +
                           (IA->isConst() ? "' must be positive"
                                          : "' can be nonpositive within the "
                                            "loop bounds"));
          return std::nullopt;
        }
        Orders.push_back(*IA);
      }
      Args.push_back(IA->expr());
      Args.back()->collectVars(Vars);
    }
    const icode::OrderRule &Rule = Intrinsics.orderRule(E->Name);
    if (Rule.Holds && !orderRuleHolds(Rule, Orders)) {
      const bool Const =
          std::all_of(Orders.begin(), Orders.end(),
                      [](const IntValue &O) { return O.isConst(); });
      fail(E->Loc, "intrinsic '" + E->Name + "' needs " + Rule.Need +
                       (Const ? "" : ", which the loop bounds do not prove"));
      return std::nullopt;
    }
    // Intrinsic evaluation tables the call over its loops' index ranges.
    std::sort(Vars.begin(), Vars.end());
    Vars.erase(std::unique(Vars.begin(), Vars.end()), Vars.end());
    std::int64_t Entries = 1;
    for (int V : Vars)
      for (const auto &[Name, Value] : S.Ints)
        if (Value.E && Value.E->K == IntExpr::Var && Value.E->V == V) {
          std::int64_t Span = 0;
          if (__builtin_sub_overflow(Value.Hi, Value.Lo, &Span) ||
              __builtin_add_overflow(Span, 1, &Span) ||
              __builtin_mul_overflow(Entries, Span, &Entries)) {
            fail(E->Loc, "the table of intrinsic '" + E->Name +
                             "' over its loops would exceed 2^63 entries");
            return std::nullopt;
          }
          break;
        }
    return Operand::intrinsic(E->Name, std::move(Args));
  }
  default:
    return flattenOperand(S, E);
  }
}

std::optional<Operand> Expander::vecOperand(Scope &S, const std::string &Name,
                                            const tpl::TExprRef &Subscript,
                                            bool IsWrite, SourceLoc Loc) {
  auto SubE = lowerInt(S, Subscript);
  if (!SubE)
    return std::nullopt;
  auto Sub = toAffine(SubE->expr(), Loc);
  if (!Sub)
    return std::nullopt;

  if (Name == "$in")
    return mapVec(S.In, *Sub);
  if (Name == "$out")
    return mapVec(S.Out, *Sub);
  if (startsWith(Name, "$t")) {
    auto It = S.TempVecs.find(Name);
    if (It == S.TempVecs.end()) {
      if (!IsWrite) {
        fail(Loc, "read of temporary vector " + Name +
                      " before anything was written to it");
        return std::nullopt;
      }
      // Directly-written temporary: allocate unsized; the extent pass sizes
      // it after expansion.
      It = S.TempVecs.insert({Name, allocTempVec(-1)}).first;
    }
    return Operand::vecElem(It->second, *Sub);
  }
  fail(Loc, "unknown vector '" + Name + "'");
  return std::nullopt;
}

std::optional<IntValue> Expander::lowerInt(Scope &S,
                                           const tpl::TExprRef &E) {
  auto Names = [this, &S](const tpl::TExpr &Name) -> std::optional<IntValue> {
    const std::string &N = Name.Name;
    if (startsWith(N, "$i") || startsWith(N, "$r")) {
      auto It = S.Ints.find(N);
      if (It != S.Ints.end())
        return It->second;
      fail(Name.Loc, N[1] == 'i' ? "loop variable " + N + " is not in scope"
                                 : "use of unassigned integer temporary " + N);
      return std::nullopt;
    }
    if (N == "$in_size" || N == "$out_size") {
      auto Sizes = inferSizes(
          std::shared_ptr<const Formula>(S.F, [](const Formula *) {}));
      if (Sizes)
        return IntValue::constant(N == "$in_size" ? Sizes->first
                                                  : Sizes->second);
      fail(Name.Loc, "cannot determine formula size");
      return std::nullopt;
    }
    if (std::optional<IntValue> V = bindingValue(S.Binds, N))
      return V;
    fail(Name.Loc, "unbound name '" + N + "' in integer expression");
    return std::nullopt;
  };
  IntFault Fault;
  std::optional<IntValue> V = icode::lowerInt(*E, Names, Fault);
  if (!V && Fault.Message)
    fail(Fault.Loc, Fault.Message);
  return V;
}

std::optional<Affine> Expander::toAffine(const IntExprRef &E, SourceLoc Loc) {
  switch (E->K) {
  case IntExpr::Const:
    return Affine(E->C);
  case IntExpr::Var:
    return Affine::var(E->V);
  case IntExpr::Add:
  case IntExpr::Sub: {
    auto A = toAffine(E->L, Loc), B = toAffine(E->R, Loc);
    if (!A || !B)
      return std::nullopt;
    return E->K == IntExpr::Add ? A->plus(*B) : A->plus(B->scaled(-1));
  }
  case IntExpr::Mul: {
    auto A = toAffine(E->L, Loc), B = toAffine(E->R, Loc);
    if (!A || !B)
      return std::nullopt;
    if (A->isConst())
      return B->scaled(A->Base);
    if (B->isConst())
      return A->scaled(B->Base);
    fail(Loc, "vector subscripts must be linear in the loop indices");
    return std::nullopt;
  }
  default:
    // Non-constant Div/Mod (lowerInt folded the constant ones).
    fail(Loc, "vector subscripts must be linear in the loop indices");
    return std::nullopt;
  }
}

std::optional<Expander::VecMap>
Expander::resolveVecArg(Scope &S, const tpl::TExprRef &Arg,
                        const FormulaRef &Callee, bool IsOut) {
  if (Arg->K != tpl::TExpr::Sym) {
    fail(Arg->Loc, "formula call vector arguments must be $in, $out or $tK");
    return std::nullopt;
  }
  const std::string &N = Arg->Name;
  if (N == "$in")
    return S.In;
  if (N == "$out")
    return S.Out;
  if (startsWith(N, "$t")) {
    auto It = S.TempVecs.find(N);
    if (It == S.TempVecs.end()) {
      if (!IsOut) {
        fail(Arg->Loc, "read of temporary vector " + N +
                           " before anything was written to it");
        return std::nullopt;
      }
      auto Sizes = inferSizes(Callee);
      if (!Sizes) {
        fail(Arg->Loc, "cannot size temporary vector " + N);
        return std::nullopt;
      }
      It = S.TempVecs.insert({N, allocTempVec(Sizes->second)}).first;
    }
    return VecMap{It->second, Affine(0), 1};
  }
  fail(Arg->Loc, "unknown vector '" + N + "' in formula call");
  return std::nullopt;
}

bool Expander::emitCall(Scope &S, const tpl::TStmt &Stmt, bool Unroll) {
  auto It = S.Binds.Formulas.find(Stmt.Callee);
  if (It == S.Binds.Formulas.end())
    return fail(Stmt.Loc, "formula variable " + Stmt.Callee +
                              " is not bound by the pattern");
  const FormulaRef &Callee = It->second;

  auto InBase = resolveVecArg(S, Stmt.CallArgs[0], Callee, /*IsOut=*/false);
  if (!InBase)
    return false;
  auto OutBase = resolveVecArg(S, Stmt.CallArgs[1], Callee, /*IsOut=*/true);
  if (!OutBase)
    return false;

  // Offsets may involve loop indices (they stay affine); strides must be
  // compile-time constants.
  auto EvalOffset = [&](const tpl::TExprRef &E) -> std::optional<Affine> {
    auto V = lowerInt(S, E);
    if (!V)
      return std::nullopt;
    return toAffine(V->expr(), E->Loc);
  };
  auto EvalStride = [&](const tpl::TExprRef &E)
      -> std::optional<std::int64_t> {
    auto V = lowerInt(S, E);
    if (!V)
      return std::nullopt;
    if (!V->isConst()) {
      fail(E->Loc, "strides in formula calls must be compile-time "
                   "constants");
      return std::nullopt;
    }
    return V->Lo;
  };

  auto InOff = EvalOffset(Stmt.CallArgs[2]);
  auto OutOff = EvalOffset(Stmt.CallArgs[3]);
  auto InStride = EvalStride(Stmt.CallArgs[4]);
  auto OutStride = EvalStride(Stmt.CallArgs[5]);
  if (!InOff || !OutOff || !InStride || !OutStride)
    return false;

  // Compose the callee's logical addressing with the caller's map:
  // element j of the callee's input lives at caller offset
  // InOff + InStride * j of the caller's $in vector.
  VecMap NewIn;
  NewIn.VecId = InBase->VecId;
  NewIn.Offset = InBase->Offset.plus(InOff->scaled(InBase->Stride));
  NewIn.Stride = InBase->Stride * *InStride;
  VecMap NewOut;
  NewOut.VecId = OutBase->VecId;
  NewOut.Offset = OutBase->Offset.plus(OutOff->scaled(OutBase->Stride));
  NewOut.Stride = OutBase->Stride * *OutStride;

  return expandInto(Callee, NewIn, NewOut, Unroll);
}

//===----------------------------------------------------------------------===//
// Native rules
//===----------------------------------------------------------------------===//

bool Expander::expandGenMatrix(const Formula &F, const VecMap &In,
                               const VecMap &Out) {
  const auto &Rows = F.matrixRows();
  for (size_t I = 0; I != Rows.size(); ++I) {
    Affine OutSub = Out.Offset.plus(Affine(static_cast<std::int64_t>(I))
                                        .scaled(Out.Stride));
    Operand Dst = Operand::vecElem(Out.VecId, OutSub);
    bool First = true;
    for (size_t J = 0; J != Rows[I].size(); ++J) {
      Cplx C = Rows[I][J];
      if (C == Cplx(0, 0))
        continue;
      if (!checkRealConst(C, F.loc()))
        return false;
      Operand Src = mapVec(In, Affine(static_cast<std::int64_t>(J)));
      Operand Term = Operand::fltTemp(freshFltTemp());
      P->Body.push_back(
          Instr::bin(Op::Mul, Term, Operand::fltConst(C), Src));
      if (First) {
        P->Body.push_back(Instr::copy(Dst, Term));
        First = false;
      } else {
        P->Body.push_back(Instr::bin(Op::Add, Dst, Dst, Term));
      }
    }
    if (First) // All-zero row.
      P->Body.push_back(Instr::copy(Dst, Operand::fltConst(Cplx(0, 0))));
  }
  return true;
}

bool Expander::expandDiagonal(const Formula &F, const VecMap &In,
                              const VecMap &Out) {
  const auto &Elems = F.diagElems();
  for (size_t I = 0; I != Elems.size(); ++I) {
    if (!checkRealConst(Elems[I], F.loc()))
      return false;
    Affine Idx(static_cast<std::int64_t>(I));
    P->Body.push_back(Instr::bin(Op::Mul, mapVec(Out, Idx),
                                 Operand::fltConst(Elems[I]),
                                 mapVec(In, Idx)));
  }
  return true;
}

bool Expander::expandPermutation(const Formula &F, const VecMap &In,
                                 const VecMap &Out) {
  const auto &Targets = F.permTargets();
  for (size_t I = 0; I != Targets.size(); ++I) {
    P->Body.push_back(
        Instr::copy(mapVec(Out, Affine(static_cast<std::int64_t>(I))),
                    mapVec(In, Affine(Targets[I] - 1))));
  }
  return true;
}

bool Expander::expandTensorSplit(const FormulaRef &F, const VecMap &In,
                                 const VecMap &Out, bool UnrollActive) {
  // A (x) B = (A (x) I_{B.out}) (I_{A.in} (x) B); both factors then match
  // the built-in tensor-with-identity templates.
  const FormulaRef &A = F->child(0), &B = F->child(1);
  auto SA = inferSizes(A), SB = inferSizes(B);
  if (!SA || !SB)
    return fail(F->loc(), "cannot determine operand sizes of " + F->print());
  FormulaRef Rewritten =
      makeCompose(makeTensor(A, makeIdentity(SB->second)),
                  makeTensor(makeIdentity(SA->first), B), F->loc());
  return expandInto(Rewritten, In, Out, UnrollActive);
}

bool Expander::expandRealify(const FormulaRef &F, const VecMap &In,
                             const VecMap &Out, bool UnrollActive) {
  // A compiles as the complex program it is everywhere else, through the
  // same prefix passes, so its part of the real body is the code A alone
  // lowers to. An enclosing unroll decision carries over, as it does into
  // any sub-formula.
  FormulaRef A = F->child(0);
  if (UnrollActive && !A->unrollHint())
    A = withUnrollHint(A, true);
  ExpandOptions SubOpts = Opts;
  SubOpts.Datatype = DataType::Complex;
  Expander Sub(Registry, Diags, Intrinsics);
  std::optional<Program> Complex = Sub.expand(A, SubOpts);
  if (!Complex)
    return false;
  opt::PipelineOptions PO;
  PO.LowerToReal = true;
  const Program Real = opt::runPrefix(*Complex, PO, Intrinsics);

  // Splice: the body's loop variables, scalars, temporaries and tables are
  // renumbered after this program's, and its $in/$out go through In/Out.
  // Its constants are real, so the body is also right in a complex program.
  const int VarBase = P->NumLoopVars, TempBase = P->NumFltTemps;
  const int TableBase = static_cast<int>(P->Tables.size());
  P->NumLoopVars += Real.NumLoopVars;
  P->NumFltTemps += Real.NumFltTemps;
  std::vector<int> Vecs;
  for (std::int64_t Size : Real.TempVecSizes)
    Vecs.push_back(allocTempVec(Size));
  P->Tables.insert(P->Tables.end(), Real.Tables.begin(), Real.Tables.end());
  auto Rebase = [&](Affine Subs) {
    for (auto &Term : Subs.Terms)
      Term.first += VarBase;
    return Subs;
  };
  auto Map = [&](Operand O) {
    switch (O.Kind) {
    case OpndKind::FltTemp:
      O.Id += TempBase;
      return O;
    case OpndKind::TableElem:
      O.Id += TableBase;
      O.Subs = Rebase(O.Subs);
      return O;
    case OpndKind::VecElem:
      if (O.Id == VecIn || O.Id == VecOut)
        return mapVec(O.Id == VecIn ? In : Out, Rebase(O.Subs));
      O.Id = Vecs[O.Id - FirstTempVec];
      O.Subs = Rebase(O.Subs);
      return O;
    default:
      return O;
    }
  };
  for (Instr I : Real.Body) {
    if (I.Opcode == Op::Loop) {
      I.LoopVar += VarBase;
    } else if (I.Opcode != Op::End) {
      I.Dst = Map(I.Dst);
      I.A = Map(I.A);
      I.B = Map(I.B);
    }
    P->Body.push_back(std::move(I));
  }
  return true;
}
