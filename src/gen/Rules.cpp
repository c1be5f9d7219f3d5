//===- gen/Rules.cpp - Breakdown rules -----------------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "gen/Rules.h"

#include "ir/Builder.h"

#include <cassert>
#include <cmath>

using namespace spl;
using namespace spl::gen;

namespace {

constexpr double Pi = 3.14159265358979323846264338327950288;

/// I_a (x) F (x) I_b with the identity factors omitted when trivial.
FormulaRef tensor3(std::int64_t A, FormulaRef F, std::int64_t B) {
  FormulaRef Out = std::move(F);
  if (B > 1)
    Out = makeTensor(Out, makeIdentity(B));
  if (A > 1)
    Out = makeTensor(makeIdentity(A), Out);
  return Out;
}

} // namespace

FormulaRef gen::ruleCooleyTukeyDIT(std::int64_t R, std::int64_t S,
                                   FormulaRef FR, FormulaRef FS) {
  assert(R > 1 && S > 1 && "factors must be nontrivial");
  std::int64_t N = R * S;
  // Associate the four factors as ((F_r (x) I_s) T) ((I_r (x) F_s) L): both
  // pairs then match the fused built-in templates (the twiddle folds into
  // the gather of the left stage, the stride permutation into the input
  // addressing of the right stage), halving the number of passes over the
  // data. An n-ary (right-associated) spelling denotes the same matrix and
  // still compiles, just through the generic compose template.
  return makeCompose(
      makeCompose(makeTensor(std::move(FR), makeIdentity(S)),
                  makeTwiddle(N, S)),
      makeCompose(makeTensor(makeIdentity(R), std::move(FS)),
                  makeStride(N, R)));
}

FormulaRef gen::ruleCooleyTukeyDIF(std::int64_t R, std::int64_t S,
                                   FormulaRef FR, FormulaRef FS) {
  assert(R > 1 && S > 1 && "factors must be nontrivial");
  std::int64_t N = R * S;
  return makeCompose({makeStride(N, S),
                      makeTensor(makeIdentity(R), std::move(FS)),
                      makeTwiddle(N, S),
                      makeTensor(std::move(FR), makeIdentity(S))});
}

FormulaRef gen::ruleCooleyTukeyParallel(std::int64_t R, std::int64_t S,
                                        FormulaRef FR, FormulaRef FS) {
  assert(R > 1 && S > 1 && "factors must be nontrivial");
  std::int64_t N = R * S;
  return makeCompose({makeStride(N, R),
                      makeTensor(makeIdentity(S), std::move(FR)),
                      makeStride(N, S), makeTwiddle(N, S),
                      makeTensor(makeIdentity(R), std::move(FS)),
                      makeStride(N, R)});
}

FormulaRef gen::ruleCooleyTukeyVector(std::int64_t R, std::int64_t S,
                                      FormulaRef FR, FormulaRef FS) {
  assert(R > 1 && S > 1 && "factors must be nontrivial");
  std::int64_t N = R * S;
  return makeCompose({makeTensor(std::move(FR), makeIdentity(S)),
                      makeTwiddle(N, S), makeStride(N, R),
                      makeTensor(std::move(FS), makeIdentity(R))});
}

FormulaRef gen::ruleVectorize(FormulaRef F, std::int64_t M) {
  assert(M >= 1 && "lane count must be positive");
  if (M == 1)
    return F;
  return makeTensor(std::move(F), makeIdentity(M));
}

FormulaRef
gen::ruleEq10(const std::vector<std::pair<std::int64_t, FormulaRef>>
                  &Factors) {
  assert(Factors.size() >= 2 && "Equation 10 needs at least two factors");
  std::int64_t N = 1;
  for (const auto &[Ni, F] : Factors) {
    (void)F;
    assert(Ni > 1 && "factors must be nontrivial");
    N *= Ni;
  }

  std::vector<FormulaRef> Stages;
  // Compute stages, i = 1..t.
  std::int64_t Before = 1;
  for (size_t I = 0; I != Factors.size(); ++I) {
    std::int64_t Ni = Factors[I].first;
    std::int64_t After = N / (Before * Ni);
    Stages.push_back(tensor3(Before, Factors[I].second, After));
    if (After > 1) {
      FormulaRef Tw = makeTwiddle(Ni * After, After);
      Stages.push_back(Before > 1 ? makeTensor(makeIdentity(Before), Tw)
                                  : Tw);
    }
    Before *= Ni;
  }
  // Permutation stages, i = t..1. L^{Ni*After}_{Ni} with After == 1 is the
  // identity and is skipped.
  for (size_t I = Factors.size(); I-- > 0;) {
    std::int64_t Ni = Factors[I].first;
    std::int64_t BeforeI = 1;
    for (size_t J = 0; J != I; ++J)
      BeforeI *= Factors[J].first;
    std::int64_t After = N / (BeforeI * Ni);
    if (After <= 1)
      continue;
    FormulaRef L = makeStride(Ni * After, Ni);
    Stages.push_back(BeforeI > 1 ? makeTensor(makeIdentity(BeforeI), L) : L);
  }
  return makeCompose(std::move(Stages));
}

FormulaRef
gen::ruleWHT(const std::vector<std::pair<std::int64_t, FormulaRef>>
                 &Factors) {
  assert(!Factors.empty() && "WHT rule needs at least one factor");
  std::int64_t N = 1;
  for (const auto &[Ni, F] : Factors) {
    (void)F;
    N *= Ni;
  }
  std::vector<FormulaRef> Stages;
  std::int64_t Before = 1;
  for (const auto &[Ni, F] : Factors) {
    std::int64_t After = N / (Before * Ni);
    Stages.push_back(tensor3(Before, F, After));
    Before *= Ni;
  }
  if (Stages.size() == 1)
    return Stages[0];
  return makeCompose(std::move(Stages));
}

FormulaRef gen::ruleDCT2Base2() {
  return makeCompose(makeDiagonal({Cplx(1, 0), Cplx(1 / std::sqrt(2.0), 0)}),
                     makeDFT(2));
}

FormulaRef gen::ruleDCT2EvenOdd(std::int64_t N, FormulaRef Dct2Half,
                                FormulaRef Dct4Half) {
  assert(N >= 4 && N % 2 == 0 && "even-odd rule needs even n >= 4");
  std::int64_t H = N / 2;
  // Q_n: z_{2j} = x_j, z_{2j+1} = x_{n-1-j} (1-based targets).
  std::vector<std::int64_t> Q(N);
  for (std::int64_t J = 0; J != H; ++J) {
    Q[2 * J] = J + 1;
    Q[2 * J + 1] = N - J;
  }
  return makeCompose({makeStride(N, H),
                      makeDirectSum(std::move(Dct2Half), std::move(Dct4Half)),
                      makeStride(N, 2),
                      makeTensor(makeIdentity(H), makeDFT(2)),
                      makePermutation(std::move(Q))});
}

FormulaRef gen::ruleDCT4ViaDCT2(std::int64_t N, FormulaRef Dct2N) {
  assert(N >= 1 && "bad DCT-IV size");
  // D_n = diag(1 / (2 cos((2j+1) pi / 4n))).
  std::vector<Cplx> D(N);
  for (std::int64_t J = 0; J != N; ++J)
    D[J] = Cplx(1.0 / (2.0 * std::cos((2.0 * J + 1) * Pi / (4.0 * N))), 0);
  // S_n: ones on the diagonal and superdiagonal.
  std::vector<std::vector<Cplx>> S(N, std::vector<Cplx>(N, Cplx(0, 0)));
  for (std::int64_t K = 0; K != N; ++K) {
    S[K][K] = Cplx(1, 0);
    if (K + 1 < N)
      S[K][K + 1] = Cplx(1, 0);
  }
  return makeCompose(
      {makeGenMatrix(std::move(S)), std::move(Dct2N), makeDiagonal(std::move(D))});
}

FormulaRef gen::ruleDCT3Base2() {
  return makeCompose(makeDFT(2),
                     makeDiagonal({Cplx(1, 0), Cplx(1 / std::sqrt(2.0), 0)}));
}

FormulaRef gen::ruleDCT3EvenOdd(std::int64_t N, FormulaRef Dct3Half,
                                FormulaRef Dct4Half) {
  assert(N >= 4 && N % 2 == 0 && "even-odd rule needs even n >= 4");
  std::int64_t H = N / 2;
  // Q_n^T: the inverse of the DCT-II mirror pairing. Row j reads z_{2j}
  // and row n-1-j reads z_{2j+1} (1-based targets).
  std::vector<std::int64_t> Qt(N);
  for (std::int64_t J = 0; J != H; ++J) {
    Qt[J] = 2 * J + 1;
    Qt[N - 1 - J] = 2 * J + 2;
  }
  return makeCompose({makePermutation(std::move(Qt)),
                      makeTensor(makeIdentity(H), makeDFT(2)),
                      makeStride(N, H),
                      makeDirectSum(std::move(Dct3Half), std::move(Dct4Half)),
                      makeStride(N, 2)});
}

FormulaRef gen::ruleRDFT(std::int64_t N, FormulaRef FHalf) {
  assert(N >= 2 && (N & (N - 1)) == 0 && "size must be a power of two");
  return makeCompose(makeSplit(N), makeRealify(std::move(FHalf)));
}

FormulaRef gen::recursiveFFT(std::int64_t N, int Variant) {
  assert(N >= 2 && (N & (N - 1)) == 0 && "size must be a power of two");
  if (N == 2)
    return makeDFT(2);
  FormulaRef FS = recursiveFFT(N / 2, Variant);
  FormulaRef FR = makeDFT(2);
  switch (Variant) {
  case 1:
    return ruleCooleyTukeyDIF(2, N / 2, FR, FS);
  case 2:
    return ruleCooleyTukeyParallel(2, N / 2, FR, FS);
  case 3:
    return ruleCooleyTukeyVector(2, N / 2, FR, FS);
  default:
    return ruleCooleyTukeyDIT(2, N / 2, FR, FS);
  }
}

FormulaRef gen::recursiveDCT2(std::int64_t N) {
  assert(N >= 2 && (N & (N - 1)) == 0 && "size must be a power of two");
  if (N == 2)
    return ruleDCT2Base2();
  return ruleDCT2EvenOdd(N, recursiveDCT2(N / 2), recursiveDCT4(N / 2));
}

FormulaRef gen::recursiveDCT3(std::int64_t N) {
  assert(N >= 2 && (N & (N - 1)) == 0 && "size must be a power of two");
  if (N == 2)
    return ruleDCT3Base2();
  return ruleDCT3EvenOdd(N, recursiveDCT3(N / 2), recursiveDCT4(N / 2));
}

FormulaRef gen::recursiveDCT4(std::int64_t N) {
  assert(N >= 1 && (N & (N - 1)) == 0 && "size must be a power of two");
  if (N == 1) {
    // DCTIV_1 = [cos(pi/4)].
    return makeDiagonal({Cplx(std::cos(Pi / 4), 0)});
  }
  return ruleDCT4ViaDCT2(N, recursiveDCT2(N));
}

FormulaRef gen::recursiveRDFT(std::int64_t N) {
  assert(N >= 2 && (N & (N - 1)) == 0 && "size must be a power of two");
  return ruleRDFT(N, N == 2 ? makeDFT(1) : recursiveFFT(N / 2));
}
