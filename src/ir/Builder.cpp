//===- ir/Builder.cpp - Formula factory functions --------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"

#include <algorithm>
#include <limits>

using namespace spl;

namespace spl {

/// Internal helper with access to Formula's private members.
class FormulaFactory {
public:
  static std::shared_ptr<Formula> create(FKind Kind, SourceLoc Loc) {
    auto F = std::shared_ptr<Formula>(new Formula());
    F->Kind = Kind;
    F->Loc = Loc;
    return F;
  }
  static void setParams(Formula &F, std::vector<IntArg> Params) {
    F.Params = std::move(Params);
  }
  static void setChildren(Formula &F, std::vector<FormulaRef> Children) {
    F.Children = std::move(Children);
  }
  static void setMatrixRows(Formula &F, std::vector<std::vector<Cplx>> Rows) {
    F.MatrixRows = std::move(Rows);
  }
  static void setDiagElems(Formula &F, std::vector<Cplx> Elems) {
    F.DiagElems = std::move(Elems);
  }
  static void setPermTargets(Formula &F, std::vector<std::int64_t> Targets) {
    F.PermTargets = std::move(Targets);
  }
  static void setVarName(Formula &F, std::string Name) {
    F.VarName = std::move(Name);
  }
  static void setSizes(Formula &F, std::int64_t In, std::int64_t Out) {
    F.InSize = In;
    F.OutSize = Out;
  }
  static void setUnrollHint(Formula &F, bool On) { F.UnrollHint = On; }
  static std::shared_ptr<Formula> clone(const Formula &F) {
    return std::shared_ptr<Formula>(new Formula(F));
  }
};

} // namespace spl

namespace {

/// Reports \p Msg into \p Diags when given and returns null — the shared
/// failure path of every validating builder.
FormulaRef invalid(Diagnostics *Diags, SourceLoc Loc, const std::string &Msg) {
  if (Diags)
    Diags->error(Loc, Msg);
  return nullptr;
}

/// True when \p A * \p B overflows int64 (both nonnegative).
bool mulOverflows(std::int64_t A, std::int64_t B) {
  return A != 0 && B > std::numeric_limits<std::int64_t>::max() / A;
}

/// Builds a square parameterized matrix whose size is its parameter \p N
/// (valid for I, F, WHT, DCT2, DCT4).
FormulaRef makeSquareParam(FKind Kind, IntArg N, SourceLoc Loc,
                           Diagnostics *Diags) {
  if (!N.isVar() && N.Value <= 0)
    return invalid(Diags, Loc,
                   std::string("(") + kindName(Kind) +
                       " n) requires a positive size (got " +
                       std::to_string(N.Value) + ")");
  auto F = FormulaFactory::create(Kind, Loc);
  FormulaFactory::setParams(*F, {N});
  if (!N.isVar())
    FormulaFactory::setSizes(*F, N.Value, N.Value);
  return F;
}

/// Builds L or T, which take parameters (mn, n) with n | mn.
FormulaRef makeStrideLike(FKind Kind, IntArg MN, IntArg N, SourceLoc Loc,
                          Diagnostics *Diags) {
  auto F = FormulaFactory::create(Kind, Loc);
  FormulaFactory::setParams(*F, {MN, N});
  if (!MN.isVar() && !N.isVar()) {
    if (MN.Value <= 0 || N.Value <= 0 || MN.Value % N.Value != 0)
      return invalid(Diags, Loc,
                     std::string("(") + kindName(Kind) +
                         " mn n) requires positive parameters with n "
                         "dividing mn (got mn=" +
                         std::to_string(MN.Value) + ", n=" +
                         std::to_string(N.Value) + ")");
    FormulaFactory::setSizes(*F, MN.Value, MN.Value);
  }
  return F;
}

/// Folds a non-empty list right-to-left with the given binary builder,
/// matching the parser's association rule for n-ary forms. A null element
/// (or an invalid intermediate) propagates to a null result.
FormulaRef foldRight(std::vector<FormulaRef> Fs,
                     FormulaRef (*Bin)(FormulaRef, FormulaRef, SourceLoc,
                                       Diagnostics *),
                     SourceLoc Loc, Diagnostics *Diags) {
  if (Fs.empty())
    return invalid(Diags, Loc, "n-ary operator needs at least one operand");
  FormulaRef Acc = Fs.back();
  for (size_t I = Fs.size() - 1; Acc && I-- > 0;)
    Acc = Bin(Fs[I], Acc, Loc, Diags);
  return Acc;
}

} // namespace

FormulaRef spl::makeIdentity(IntArg N, SourceLoc Loc, Diagnostics *Diags) {
  return makeSquareParam(FKind::Identity, N, Loc, Diags);
}

FormulaRef spl::makeDFT(IntArg N, SourceLoc Loc, Diagnostics *Diags) {
  return makeSquareParam(FKind::DFT, N, Loc, Diags);
}

FormulaRef spl::makeWHT(IntArg N, SourceLoc Loc, Diagnostics *Diags) {
  if (!N.isVar() && (N.Value <= 0 || (N.Value & (N.Value - 1)) != 0))
    return invalid(Diags, Loc,
                   "(WHT n) requires a positive power-of-two size (got " +
                       std::to_string(N.Value) + ")");
  return makeSquareParam(FKind::WHT, N, Loc, Diags);
}

FormulaRef spl::makeDCT2(IntArg N, SourceLoc Loc, Diagnostics *Diags) {
  return makeSquareParam(FKind::DCT2, N, Loc, Diags);
}

FormulaRef spl::makeDCT4(IntArg N, SourceLoc Loc, Diagnostics *Diags) {
  return makeSquareParam(FKind::DCT4, N, Loc, Diags);
}

FormulaRef spl::makeSplit(IntArg N, SourceLoc Loc, Diagnostics *Diags) {
  if (!N.isVar() && (N.Value < 2 || (N.Value & (N.Value - 1)) != 0))
    return invalid(Diags, Loc,
                   "(S n) requires a power-of-two size of at least 2 (got " +
                       std::to_string(N.Value) + ")");
  return makeSquareParam(FKind::Split, N, Loc, Diags);
}

FormulaRef spl::makeStride(IntArg MN, IntArg N, SourceLoc Loc,
                           Diagnostics *Diags) {
  return makeStrideLike(FKind::Stride, MN, N, Loc, Diags);
}

FormulaRef spl::makeTwiddle(IntArg MN, IntArg N, SourceLoc Loc,
                            Diagnostics *Diags) {
  return makeStrideLike(FKind::Twiddle, MN, N, Loc, Diags);
}

FormulaRef spl::makeGenMatrix(std::vector<std::vector<Cplx>> Rows,
                              SourceLoc Loc, Diagnostics *Diags) {
  if (Rows.empty() || Rows[0].empty())
    return invalid(Diags, Loc, "(matrix ...) must have nonempty rows");
  for (const auto &Row : Rows)
    if (Row.size() != Rows[0].size())
      return invalid(Diags, Loc,
                     "(matrix ...) rows must all have the same length");
  auto F = FormulaFactory::create(FKind::GenMatrix, Loc);
  std::int64_t Out = static_cast<std::int64_t>(Rows.size());
  std::int64_t In = static_cast<std::int64_t>(Rows[0].size());
  FormulaFactory::setMatrixRows(*F, std::move(Rows));
  FormulaFactory::setSizes(*F, In, Out);
  return F;
}

FormulaRef spl::makeDiagonal(std::vector<Cplx> Elems, SourceLoc Loc,
                             Diagnostics *Diags) {
  if (Elems.empty())
    return invalid(Diags, Loc, "(diagonal ...) must be nonempty");
  auto F = FormulaFactory::create(FKind::Diagonal, Loc);
  std::int64_t N = static_cast<std::int64_t>(Elems.size());
  FormulaFactory::setDiagElems(*F, std::move(Elems));
  FormulaFactory::setSizes(*F, N, N);
  return F;
}

FormulaRef spl::makePermutation(std::vector<std::int64_t> Targets,
                                SourceLoc Loc, Diagnostics *Diags) {
  if (Targets.empty())
    return invalid(Diags, Loc, "(permutation ...) must be nonempty");
  std::vector<std::int64_t> Sorted = Targets;
  std::sort(Sorted.begin(), Sorted.end());
  for (size_t I = 0; I != Sorted.size(); ++I)
    if (Sorted[I] != static_cast<std::int64_t>(I) + 1)
      return invalid(Diags, Loc,
                     "(permutation ...) targets must form a permutation "
                     "of 1..n");
  auto F = FormulaFactory::create(FKind::Permutation, Loc);
  std::int64_t N = static_cast<std::int64_t>(Targets.size());
  FormulaFactory::setPermTargets(*F, std::move(Targets));
  FormulaFactory::setSizes(*F, N, N);
  return F;
}

FormulaRef spl::makeCompose(FormulaRef A, FormulaRef B, SourceLoc Loc,
                            Diagnostics *Diags) {
  if (!A || !B)
    return nullptr; // A reported failure upstream propagates.
  if (A->inSize() >= 0 && B->outSize() >= 0 && A->inSize() != B->outSize())
    return invalid(Diags, Loc,
                   "compose size mismatch: in_size " +
                       std::to_string(A->inSize()) + " vs out_size " +
                       std::to_string(B->outSize()));
  auto F = FormulaFactory::create(FKind::Compose, Loc);
  std::int64_t In = B->inSize(), Out = A->outSize();
  FormulaFactory::setChildren(*F, {std::move(A), std::move(B)});
  if (In >= 0 && Out >= 0)
    FormulaFactory::setSizes(*F, In, Out);
  return F;
}

FormulaRef spl::makeCompose(std::vector<FormulaRef> Fs, SourceLoc Loc,
                            Diagnostics *Diags) {
  return foldRight(std::move(Fs), &spl::makeCompose, Loc, Diags);
}

FormulaRef spl::makeTensor(FormulaRef A, FormulaRef B, SourceLoc Loc,
                           Diagnostics *Diags) {
  if (!A || !B)
    return nullptr;
  std::int64_t In = -1, Out = -1;
  if (A->inSize() >= 0 && B->inSize() >= 0) {
    if (mulOverflows(A->inSize(), B->inSize()) ||
        mulOverflows(A->outSize(), B->outSize()))
      return invalid(Diags, Loc, "tensor product size overflows");
    In = A->inSize() * B->inSize();
    Out = A->outSize() * B->outSize();
  }
  auto F = FormulaFactory::create(FKind::Tensor, Loc);
  FormulaFactory::setChildren(*F, {std::move(A), std::move(B)});
  FormulaFactory::setSizes(*F, In, Out);
  return F;
}

FormulaRef spl::makeTensor(std::vector<FormulaRef> Fs, SourceLoc Loc,
                           Diagnostics *Diags) {
  return foldRight(std::move(Fs), &spl::makeTensor, Loc, Diags);
}

FormulaRef spl::makeDirectSum(FormulaRef A, FormulaRef B, SourceLoc Loc,
                              Diagnostics *Diags) {
  if (!A || !B)
    return nullptr;
  auto F = FormulaFactory::create(FKind::DirectSum, Loc);
  std::int64_t In = -1, Out = -1;
  if (A->inSize() >= 0 && B->inSize() >= 0) {
    In = A->inSize() + B->inSize();
    Out = A->outSize() + B->outSize();
  }
  FormulaFactory::setChildren(*F, {std::move(A), std::move(B)});
  FormulaFactory::setSizes(*F, In, Out);
  return F;
}

FormulaRef spl::makeDirectSum(std::vector<FormulaRef> Fs, SourceLoc Loc,
                              Diagnostics *Diags) {
  return foldRight(std::move(Fs), &spl::makeDirectSum, Loc, Diags);
}

FormulaRef spl::makeRealify(FormulaRef A, SourceLoc Loc,
                             Diagnostics *Diags) {
  if (!A)
    return nullptr;
  std::int64_t In = -1, Out = -1;
  if (A->inSize() >= 0) {
    if (mulOverflows(2, A->inSize()) || mulOverflows(2, A->outSize()))
      return invalid(Diags, Loc, "realify size overflows");
    In = 2 * A->inSize();
    Out = 2 * A->outSize();
  }
  auto F = FormulaFactory::create(FKind::Realify, Loc);
  FormulaFactory::setChildren(*F, {std::move(A)});
  FormulaFactory::setSizes(*F, In, Out);
  return F;
}

FormulaRef spl::makePatFormula(std::string Name, SourceLoc Loc,
                               Diagnostics *Diags) {
  if (Name.empty() || Name.back() != '_')
    return invalid(Diags, Loc, "pattern variable names must end with '_'");
  auto F = FormulaFactory::create(FKind::PatFormula, Loc);
  FormulaFactory::setVarName(*F, std::move(Name));
  return F;
}

FormulaRef spl::makeUserParam(std::string Name, std::vector<IntArg> Params,
                              SourceLoc Loc, Diagnostics *Diags) {
  if (Name.empty())
    return invalid(Diags, Loc, "user-defined matrix needs a name");
  auto F = FormulaFactory::create(FKind::UserParam, Loc);
  FormulaFactory::setVarName(*F, std::move(Name));
  FormulaFactory::setParams(*F, std::move(Params));
  return F;
}

FormulaRef spl::withUnrollHint(const FormulaRef &F, bool On) {
  if (!F)
    return nullptr;
  auto Copy = FormulaFactory::clone(*F);
  FormulaFactory::setUnrollHint(*Copy, On);
  return Copy;
}
