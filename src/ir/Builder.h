//===- ir/Builder.h - Formula factory functions -----------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Factory functions for building SPL formulas programmatically. These are
/// the public construction API (the parser also routes through them); each
/// validates its arguments and pre-computes the formula's input/output
/// sizes. An invalid construction (nonpositive size, non-dividing stride
/// parameter, malformed permutation, size overflow) returns nullptr — and
/// reports a Diagnostics error when the caller passes \p Diags — instead of
/// asserting, so malformed input reaching the builders through the parser
/// degrades to an ordinary compile error rather than aborting the process.
/// The n-ary operator builders are null-tolerant: a null operand propagates
/// to a null result.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_IR_BUILDER_H
#define SPL_IR_BUILDER_H

#include "ir/Formula.h"
#include "support/Diagnostics.h"

namespace spl {

/// (I n) — the n-by-n identity.
FormulaRef makeIdentity(IntArg N, SourceLoc Loc = SourceLoc(),
                        Diagnostics *Diags = nullptr);
/// (F n) — the n-point DFT.
FormulaRef makeDFT(IntArg N, SourceLoc Loc = SourceLoc(),
                   Diagnostics *Diags = nullptr);
/// (L mn n) — the mn-by-mn stride permutation with stride n; requires n|mn.
FormulaRef makeStride(IntArg MN, IntArg N, SourceLoc Loc = SourceLoc(),
                      Diagnostics *Diags = nullptr);
/// (T mn n) — the mn-by-mn twiddle matrix of Equation 4; requires n|mn.
FormulaRef makeTwiddle(IntArg MN, IntArg N, SourceLoc Loc = SourceLoc(),
                       Diagnostics *Diags = nullptr);
/// (WHT n) — the n-point Walsh-Hadamard transform; n a power of two.
FormulaRef makeWHT(IntArg N, SourceLoc Loc = SourceLoc(),
                   Diagnostics *Diags = nullptr);
/// (DCT2 n) — the unnormalized DCT type II.
FormulaRef makeDCT2(IntArg N, SourceLoc Loc = SourceLoc(),
                    Diagnostics *Diags = nullptr);
/// (DCT4 n) — the unnormalized DCT type IV.
FormulaRef makeDCT4(IntArg N, SourceLoc Loc = SourceLoc(),
                    Diagnostics *Diags = nullptr);
/// (S n) — the real split butterfly of the rdft (rdftSplitMatrix); n a
/// power of two, at least 2.
FormulaRef makeSplit(IntArg N, SourceLoc Loc = SourceLoc(),
                     Diagnostics *Diags = nullptr);

/// (matrix (...rows...)) — a general matrix given by its elements. All rows
/// must have equal, nonzero length.
FormulaRef makeGenMatrix(std::vector<std::vector<Cplx>> Rows,
                         SourceLoc Loc = SourceLoc(),
                         Diagnostics *Diags = nullptr);
/// (diagonal (...)) — a diagonal matrix given by its diagonal.
FormulaRef makeDiagonal(std::vector<Cplx> Elems, SourceLoc Loc = SourceLoc(),
                        Diagnostics *Diags = nullptr);
/// (permutation (k1 ... kn)) — y_i = x_{k_i - 1}; targets are 1-based and
/// must form a permutation of 1..n.
FormulaRef makePermutation(std::vector<std::int64_t> Targets,
                           SourceLoc Loc = SourceLoc(),
                           Diagnostics *Diags = nullptr);

/// (compose A B) — matrix product; requires A.inSize == B.outSize when both
/// are known.
FormulaRef makeCompose(FormulaRef A, FormulaRef B, SourceLoc Loc = SourceLoc(),
                       Diagnostics *Diags = nullptr);
/// N-ary compose, associated right-to-left as the parser does.
FormulaRef makeCompose(std::vector<FormulaRef> Fs, SourceLoc Loc = SourceLoc(),
                       Diagnostics *Diags = nullptr);
/// (tensor A B) — tensor product.
FormulaRef makeTensor(FormulaRef A, FormulaRef B, SourceLoc Loc = SourceLoc(),
                      Diagnostics *Diags = nullptr);
/// N-ary tensor, associated right-to-left.
FormulaRef makeTensor(std::vector<FormulaRef> Fs, SourceLoc Loc = SourceLoc(),
                      Diagnostics *Diags = nullptr);
/// (direct-sum A B).
FormulaRef makeDirectSum(FormulaRef A, FormulaRef B,
                         SourceLoc Loc = SourceLoc(),
                         Diagnostics *Diags = nullptr);
/// N-ary direct sum, associated right-to-left.
FormulaRef makeDirectSum(std::vector<FormulaRef> Fs,
                         SourceLoc Loc = SourceLoc(),
                         Diagnostics *Diags = nullptr);

/// (realify A) — the real 2m x 2n matrix acting on interleaved (re, im)
/// pairs the way the complex m x n matrix A acts on points.
FormulaRef makeRealify(FormulaRef A, SourceLoc Loc = SourceLoc(),
                       Diagnostics *Diags = nullptr);

/// "A_" — a formula pattern variable (template patterns only).
FormulaRef makePatFormula(std::string Name, SourceLoc Loc = SourceLoc(),
                          Diagnostics *Diags = nullptr);

/// (Name p1 p2 ...) — a user-defined parameterized matrix whose semantics
/// come from a user template; sizes are inferred by the expander.
FormulaRef makeUserParam(std::string Name, std::vector<IntArg> Params,
                         SourceLoc Loc = SourceLoc(),
                         Diagnostics *Diags = nullptr);

/// Returns \p F with the per-formula #unroll hint set to \p On (shallow
/// copy of the root node; children are shared). Null-tolerant.
FormulaRef withUnrollHint(const FormulaRef &F, bool On);

} // namespace spl

#endif // SPL_IR_BUILDER_H
