//===- gen/Rules.h - Breakdown rules ----------------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The formula generator's breakdown rules (paper Section 2.1): the
/// Cooley-Tukey factorization (Equation 5) with its decimation-in-frequency
/// (7), parallel (8) and vector (9) variants, the general multi-factor
/// factorization (Equation 10), the Walsh-Hadamard rule, the recursive
/// DCT-II / DCT-IV rules and the real-input DFT rule. Each rule returns an
/// SPL formula that denotes exactly the transform it factors; tests verify
/// every rule against the dense definitions.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_GEN_RULES_H
#define SPL_GEN_RULES_H

#include "ir/Formula.h"

#include <cstdint>
#include <vector>

namespace spl {
namespace gen {

/// Equation 5, decimation in time:
/// F_rs = (F_r (x) I_s) T^{rs}_s (I_r (x) F_s) L^{rs}_r.
/// \p FR and \p FS are formulas computing F_r and F_s (pass makeDFT for the
/// unexpanded transform, or previously searched factorizations).
FormulaRef ruleCooleyTukeyDIT(std::int64_t R, std::int64_t S, FormulaRef FR,
                              FormulaRef FS);

/// Equation 7, decimation in frequency:
/// F_rs = L^{rs}_s (I_r (x) F_s) T^{rs}_s (F_r (x) I_s).
FormulaRef ruleCooleyTukeyDIF(std::int64_t R, std::int64_t S, FormulaRef FR,
                              FormulaRef FS);

/// Equation 8, the parallel form (every compute stage is I (x) A):
/// F_rs = L^{rs}_r (I_s (x) F_r) L^{rs}_s T^{rs}_s (I_r (x) F_s) L^{rs}_r.
FormulaRef ruleCooleyTukeyParallel(std::int64_t R, std::int64_t S,
                                   FormulaRef FR, FormulaRef FS);

/// Equation 9, the vector form (every compute stage is A (x) I):
/// F_rs = (F_r (x) I_s) T^{rs}_s L^{rs}_r (F_s (x) I_r).
FormulaRef ruleCooleyTukeyVector(std::int64_t R, std::int64_t S,
                                 FormulaRef FR, FormulaRef FS);

/// Section 5's vectorization wrapper: A -> A (x) I_m, applying \p F to
/// \p M interleaved vectors at once so the m columns ride one SIMD lane
/// group (the rewrite the vector codegen backend realizes at the
/// instruction level). M = 1 returns \p F unchanged.
FormulaRef ruleVectorize(FormulaRef F, std::int64_t M);

/// Equation 10, the general multi-factor factorization for
/// n = n_1 * ... * n_t (t >= 2). \p Factors supplies each n_i together with
/// a formula computing F_{n_i}:
///   F_n = prod_{i=1..t} (I_{n(i-)} (x) F_{n_i} (x) I_{n(i+)})
///                       (I_{n(i-)} (x) T^{n_i * n(i+)}_{n(i+)})
///         * prod_{i=t..1} (I_{n(i-)} (x) L^{n_i * n(i+)}_{n_i}),
/// where n(i-) = n_1...n_{i-1} and n(i+) = n_{i+1}...n_t. With t = 2 this
/// reduces to Equation 5; with all n_i = 2 it is the iterative radix-2 FFT.
FormulaRef ruleEq10(const std::vector<std::pair<std::int64_t, FormulaRef>>
                        &Factors);

/// The WHT factorization of Section 2.1 for 2^k = prod 2^{k_i}:
/// WHT_{2^k} = prod_i (I_{2^{k_1+..+k_{i-1}}} (x) WHT_{2^{k_i}} (x)
///                     I_{2^{k_{i+1}+..+k_t}}).
FormulaRef ruleWHT(const std::vector<std::pair<std::int64_t, FormulaRef>>
                       &Factors);

/// DCT-II base case: DCTII_2 = diag(1, 1/sqrt(2)) F_2.
FormulaRef ruleDCT2Base2();

/// Recursive DCT-II rule for even n:
/// DCTII_n = L^n_{n/2} (DCTII_{n/2} (+) DCTIV_{n/2}) L^n_2
///           (I_{n/2} (x) F_2) Q_n,
/// where Q_n pairs each x_j with its mirror x_{n-1-j}.
FormulaRef ruleDCT2EvenOdd(std::int64_t N, FormulaRef Dct2Half,
                           FormulaRef Dct4Half);

/// DCT-IV via DCT-II: DCTIV_n = S_n DCTII_n D_n, with
/// D_n = diag(1 / (2 cos((2j+1) pi / 4n))) and S_n the upper-bidiagonal
/// all-ones band matrix (the paper's "DCTIV_n = S . DCTII_n . D").
FormulaRef ruleDCT4ViaDCT2(std::int64_t N, FormulaRef Dct2N);

/// DCT-III base case: DCTIII_2 = F_2 diag(1, 1/sqrt(2)) (the transpose of
/// the DCT-II base case; DCT-III is the transpose of DCT-II throughout).
FormulaRef ruleDCT3Base2();

/// Recursive DCT-III rule for even n — the transpose of ruleDCT2EvenOdd
/// (F_2, DCT-IV and the direct sum are symmetric; L^n_2 and L^n_{n/2}
/// transpose into each other):
/// DCTIII_n = Q_n^T (I_{n/2} (x) F_2) L^n_{n/2}
///            (DCTIII_{n/2} (+) DCTIV_{n/2}) L^n_2.
FormulaRef ruleDCT3EvenOdd(std::int64_t N, FormulaRef Dct3Half,
                           FormulaRef Dct4Half);

/// The real-input DFT in halfcomplex layout from a half-size complex DFT:
/// RDFT_n = S_n realify(F_{n/2}). realify(F_{n/2}) runs F_{n/2} on the n
/// real inputs read as n/2 interleaved complex points, and the split
/// butterfly S_n turns its output into the halfcomplex spectrum. \p FHalf
/// computes F_{n/2} (a searched factorization, or (F 1) for n = 2). The
/// planner, the registry rule and splc all build rdft here.
FormulaRef ruleRDFT(std::int64_t N, FormulaRef FHalf);

/// Fully recursive FFT formula of size n = 2^k built with rule \p Variant
/// at every level, splitting as r=2 ("right-most"), down to (F 2) leaves.
/// Variant: 0 DIT, 1 DIF, 2 parallel, 3 vector.
FormulaRef recursiveFFT(std::int64_t N, int Variant = 0);

/// Fully recursive DCT-II of size n = 2^k via the even-odd rule.
FormulaRef recursiveDCT2(std::int64_t N);

/// Fully recursive DCT-III of size n = 2^k via the transposed even-odd rule.
FormulaRef recursiveDCT3(std::int64_t N);

/// Fully recursive DCT-IV of size n = 2^k (via DCT-II).
FormulaRef recursiveDCT4(std::int64_t N);

/// RDFT of size n = 2^k: ruleRDFT over a recursive FFT of size n/2.
FormulaRef recursiveRDFT(std::int64_t N);

} // namespace gen
} // namespace spl

#endif // SPL_GEN_RULES_H
