//===- ir/Formula.cpp - SPL formula trees ---------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Formula.h"

#include "ir/Transforms.h"
#include "support/StrUtil.h"

#include <functional>

using namespace spl;

const char *spl::kindName(FKind Kind) {
  switch (Kind) {
  case FKind::Identity:
    return "I";
  case FKind::DFT:
    return "F";
  case FKind::Stride:
    return "L";
  case FKind::Twiddle:
    return "T";
  case FKind::WHT:
    return "WHT";
  case FKind::DCT2:
    return "DCT2";
  case FKind::DCT4:
    return "DCT4";
  case FKind::Split:
    return "S";
  case FKind::GenMatrix:
    return "matrix";
  case FKind::Diagonal:
    return "diagonal";
  case FKind::Permutation:
    return "permutation";
  case FKind::Compose:
    return "compose";
  case FKind::Tensor:
    return "tensor";
  case FKind::DirectSum:
    return "direct-sum";
  case FKind::Realify:
    return "realify";
  case FKind::UserParam:
    return "<user>";
  case FKind::PatFormula:
    return "<pattern-var>";
  }
  return "<invalid>";
}

std::int64_t Formula::param(unsigned I) const {
  assert(I < Params.size() && "parameter index out of range");
  assert(!Params[I].isVar() && "parameter is a pattern variable");
  return Params[I].Value;
}

bool Formula::isPattern() const {
  if (Kind == FKind::PatFormula)
    return true;
  for (const IntArg &P : Params)
    if (P.isVar())
      return true;
  for (const FormulaRef &C : Children)
    if (C->isPattern())
      return true;
  return false;
}

bool Formula::hasDenseSemantics() const {
  if (Kind == FKind::PatFormula || Kind == FKind::UserParam)
    return false;
  for (const IntArg &P : Params)
    if (P.isVar())
      return false;
  for (const FormulaRef &C : Children)
    if (!C || !C->hasDenseSemantics())
      return false;
  return true;
}

Matrix Formula::toMatrix() const {
  assert(hasDenseSemantics() && "no dense semantics for this formula; "
                                "check hasDenseSemantics() first");
  switch (Kind) {
  case FKind::Identity:
    return Matrix::identity(param(0));
  case FKind::DFT:
    return dftMatrix(param(0));
  case FKind::Stride:
    return strideMatrix(param(0), param(1));
  case FKind::Twiddle:
    return twiddleMatrix(param(0), param(1));
  case FKind::WHT:
    return whtMatrix(param(0));
  case FKind::DCT2:
    return dct2Matrix(param(0));
  case FKind::DCT4:
    return dct4Matrix(param(0));
  case FKind::Split:
    return rdftSplitMatrix(param(0));
  case FKind::GenMatrix: {
    Matrix M(MatrixRows.size(), MatrixRows.empty() ? 0 : MatrixRows[0].size());
    for (size_t R = 0; R != MatrixRows.size(); ++R)
      for (size_t C = 0; C != MatrixRows[R].size(); ++C)
        M.at(R, C) = MatrixRows[R][C];
    return M;
  }
  case FKind::Diagonal: {
    Matrix M(DiagElems.size(), DiagElems.size());
    for (size_t I = 0; I != DiagElems.size(); ++I)
      M.at(I, I) = DiagElems[I];
    return M;
  }
  case FKind::Permutation: {
    Matrix M(PermTargets.size(), PermTargets.size());
    for (size_t I = 0; I != PermTargets.size(); ++I)
      M.at(I, PermTargets[I] - 1) = Cplx(1, 0);
    return M;
  }
  case FKind::Compose:
    return child(0)->toMatrix().mul(child(1)->toMatrix());
  case FKind::Tensor:
    return child(0)->toMatrix().kron(child(1)->toMatrix());
  case FKind::DirectSum:
    return child(0)->toMatrix().directSum(child(1)->toMatrix());
  case FKind::Realify:
    return realifyMatrix(child(0)->toMatrix());
  case FKind::UserParam:
    assert(false && "user-defined matrices have no dense semantics; "
                    "execute their template instead");
    break;
  case FKind::PatFormula:
    break;
  }
  assert(false && "unhandled formula kind");
  return Matrix();
}

void Formula::printInto(std::string &Out) const {
  switch (Kind) {
  case FKind::PatFormula:
    Out += VarName;
    return;
  case FKind::GenMatrix: {
    Out += "(matrix (";
    for (size_t R = 0; R != MatrixRows.size(); ++R) {
      if (R)
        Out += ' ';
      Out += '(';
      for (size_t C = 0; C != MatrixRows[R].size(); ++C) {
        if (C)
          Out += ' ';
        Out += formatComplex(MatrixRows[R][C]);
      }
      Out += ')';
    }
    Out += "))";
    return;
  }
  case FKind::Diagonal: {
    Out += "(diagonal (";
    for (size_t I = 0; I != DiagElems.size(); ++I) {
      if (I)
        Out += ' ';
      Out += formatComplex(DiagElems[I]);
    }
    Out += "))";
    return;
  }
  case FKind::Permutation: {
    Out += "(permutation (";
    for (size_t I = 0; I != PermTargets.size(); ++I) {
      if (I)
        Out += ' ';
      Out += std::to_string(PermTargets[I]);
    }
    Out += "))";
    return;
  }
  case FKind::Realify:
    Out += "(realify ";
    child(0)->printInto(Out);
    Out += ')';
    return;
  case FKind::Compose:
  case FKind::Tensor:
  case FKind::DirectSum: {
    // Flatten the right spine of same-kind chains into n-ary form; parsing
    // re-associates right-to-left, so the round trip is exact.
    Out += '(';
    Out += kindName(Kind);
    const Formula *F = this;
    for (;;) {
      Out += ' ';
      F->child(0)->printInto(Out);
      const Formula *Rhs = F->child(1).get();
      if (Rhs->Kind != Kind) {
        Out += ' ';
        Rhs->printInto(Out);
        break;
      }
      F = Rhs;
    }
    Out += ')';
    return;
  }
  default: {
    Out += '(';
    Out += Kind == FKind::UserParam ? VarName.c_str() : kindName(Kind);
    for (const IntArg &P : Params) {
      Out += ' ';
      Out += P.isVar() ? P.Var : std::to_string(P.Value);
    }
    Out += ')';
    return;
  }
  }
}

std::string Formula::print() const {
  std::string Out;
  printInto(Out);
  return Out;
}

bool Formula::equal(const Formula &A, const Formula &B) {
  if (&A == &B)
    return true;
  if (A.Kind != B.Kind || A.Params != B.Params ||
      A.VarName != B.VarName || A.MatrixRows != B.MatrixRows ||
      A.DiagElems != B.DiagElems || A.PermTargets != B.PermTargets ||
      A.Children.size() != B.Children.size())
    return false;
  for (size_t I = 0; I != A.Children.size(); ++I)
    if (!equal(*A.Children[I], *B.Children[I]))
      return false;
  return true;
}

bool spl::formulaEqual(const FormulaRef &A, const FormulaRef &B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  return Formula::equal(*A, *B);
}

std::size_t Formula::hash() const {
  auto Mix = [](std::size_t H, std::size_t V) {
    return H * 1099511628211ull ^ V;
  };
  std::size_t H = Mix(14695981039346656037ull, static_cast<std::size_t>(Kind));
  for (const IntArg &P : Params) {
    H = Mix(H, std::hash<std::int64_t>()(P.Value));
    H = Mix(H, std::hash<std::string>()(P.Var));
  }
  H = Mix(H, std::hash<std::string>()(VarName));
  auto HashCplx = [&](Cplx V) {
    H = Mix(H, std::hash<double>()(V.real()));
    H = Mix(H, std::hash<double>()(V.imag()));
  };
  for (const auto &Row : MatrixRows)
    for (Cplx V : Row)
      HashCplx(V);
  for (Cplx V : DiagElems)
    HashCplx(V);
  for (std::int64_t T : PermTargets)
    H = Mix(H, std::hash<std::int64_t>()(T));
  for (const FormulaRef &C : Children)
    H = Mix(H, C->hash());
  return H;
}
