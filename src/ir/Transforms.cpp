//===- ir/Transforms.cpp - Transform entry functions ----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Transforms.h"

#include <cassert>
#include <cmath>

using namespace spl;

namespace {
constexpr double Pi = 3.14159265358979323846264338327950288;
} // namespace

Cplx spl::wRoot(std::int64_t N, std::int64_t K) {
  assert(N > 0 && "root of unity needs a positive order");
  // Reduce the exponent so huge k*k products stay accurate.
  std::int64_t R = K % N;
  if (R < 0)
    R += N;
  // Roots on the axes are exact (so the compiler's multiply-by-(+-1, +-i)
  // strength reductions fire), as are the eighth roots (+-sqrt(1/2)
  // components CSE perfectly across butterflies).
  if ((4 * R) % N == 0) {
    switch ((4 * R) / N) {
    case 0:
      return Cplx(1, 0);
    case 1:
      return Cplx(0, -1);
    case 2:
      return Cplx(-1, 0);
    default:
      return Cplx(0, 1);
    }
  }
  if ((8 * R) % N == 0) {
    constexpr double S = 0.70710678118654752440084436210485;
    switch ((8 * R) / N) {
    case 1:
      return Cplx(S, -S);
    case 3:
      return Cplx(-S, -S);
    case 5:
      return Cplx(-S, S);
    default:
      return Cplx(S, S);
    }
  }
  double Angle = -2.0 * Pi * static_cast<double>(R) / static_cast<double>(N);
  return Cplx(std::cos(Angle), std::sin(Angle));
}

Cplx spl::dftEntry(std::int64_t N, std::int64_t P, std::int64_t Q) {
  // Reduce p*q mod n before multiplying to avoid overflow for large n.
  std::int64_t PM = P % N, QM = Q % N;
  return wRoot(N, (PM * QM) % N);
}

Cplx spl::twiddleEntry(std::int64_t MN, std::int64_t N, std::int64_t I) {
  assert(N > 0 && MN % N == 0 && "T^{mn}_n requires n | mn");
  std::int64_t J = I / N, K = I % N;
  return wRoot(MN, (J % MN) * (K % MN) % MN);
}

std::int64_t spl::strideIndex(std::int64_t MN, std::int64_t N,
                              std::int64_t I) {
  assert(N > 0 && MN % N == 0 && "L^{mn}_n requires n | mn");
  std::int64_t M = MN / N;
  std::int64_t P = I / M, Q = I % M;
  return Q * N + P;
}

double spl::whtEntry(std::int64_t N, std::int64_t K, std::int64_t J) {
  assert(N > 0 && (N & (N - 1)) == 0 && "WHT size must be a power of two");
  std::int64_t Bits = static_cast<std::uint64_t>(K) & static_cast<std::uint64_t>(J);
  int Pop = __builtin_popcountll(static_cast<unsigned long long>(Bits));
  return (Pop & 1) ? -1.0 : 1.0;
}

double spl::dct2Entry(std::int64_t N, std::int64_t K, std::int64_t J) {
  return std::cos(static_cast<double>(K) * (2.0 * static_cast<double>(J) + 1) *
                  Pi / (2.0 * static_cast<double>(N)));
}

double spl::dct3Entry(std::int64_t N, std::int64_t K, std::int64_t J) {
  return dct2Entry(N, J, K);
}

double spl::dct4Entry(std::int64_t N, std::int64_t K, std::int64_t J) {
  return std::cos((2.0 * static_cast<double>(K) + 1) *
                  (2.0 * static_cast<double>(J) + 1) * Pi /
                  (4.0 * static_cast<double>(N)));
}

double spl::rdftEntry(std::int64_t N, std::int64_t K, std::int64_t J) {
  assert(N > 0 && K >= 0 && K < N && J >= 0 && J < N && "bad rdft index");
  if (K <= N / 2) {
    Cplx W = wRoot(N, (K % N) * (J % N) % N);
    return W.real();
  }
  Cplx W = wRoot(N, ((N - K) % N) * (J % N) % N);
  return W.imag();
}

Matrix spl::dftMatrix(std::int64_t N) {
  Matrix M(N, N);
  for (std::int64_t P = 0; P != N; ++P)
    for (std::int64_t Q = 0; Q != N; ++Q)
      M.at(P, Q) = dftEntry(N, P, Q);
  return M;
}

Matrix spl::strideMatrix(std::int64_t MN, std::int64_t N) {
  Matrix M(MN, MN);
  for (std::int64_t I = 0; I != MN; ++I)
    M.at(I, strideIndex(MN, N, I)) = Cplx(1, 0);
  return M;
}

Matrix spl::twiddleMatrix(std::int64_t MN, std::int64_t N) {
  Matrix M(MN, MN);
  for (std::int64_t I = 0; I != MN; ++I)
    M.at(I, I) = twiddleEntry(MN, N, I);
  return M;
}

Matrix spl::whtMatrix(std::int64_t N) {
  Matrix M(N, N);
  for (std::int64_t K = 0; K != N; ++K)
    for (std::int64_t J = 0; J != N; ++J)
      M.at(K, J) = Cplx(whtEntry(N, K, J), 0);
  return M;
}

Matrix spl::dct2Matrix(std::int64_t N) {
  Matrix M(N, N);
  for (std::int64_t K = 0; K != N; ++K)
    for (std::int64_t J = 0; J != N; ++J)
      M.at(K, J) = Cplx(dct2Entry(N, K, J), 0);
  return M;
}

Matrix spl::dct3Matrix(std::int64_t N) {
  Matrix M(N, N);
  for (std::int64_t K = 0; K != N; ++K)
    for (std::int64_t J = 0; J != N; ++J)
      M.at(K, J) = Cplx(dct3Entry(N, K, J), 0);
  return M;
}

Matrix spl::dct4Matrix(std::int64_t N) {
  Matrix M(N, N);
  for (std::int64_t K = 0; K != N; ++K)
    for (std::int64_t J = 0; J != N; ++J)
      M.at(K, J) = Cplx(dct4Entry(N, K, J), 0);
  return M;
}

Matrix spl::rdftMatrix(std::int64_t N) {
  Matrix M(N, N);
  for (std::int64_t K = 0; K != N; ++K)
    for (std::int64_t J = 0; J != N; ++J)
      M.at(K, J) = Cplx(rdftEntry(N, K, J), 0);
  return M;
}

Matrix spl::rdftSplitMatrix(std::int64_t N) {
  const std::int64_t H = N / 2;
  Matrix M(N, N);
  // X_k = a_k Z_k + b_k conj Z_{(H-k) mod H}, a_k = (1 - i w^k) / 2 and
  // b_k = (1 + i w^k) / 2; column j is the unit Z_{j/2} = 1 (j even) or i.
  for (std::int64_t J = 0; J != N; ++J) {
    const std::int64_t P = J / 2;
    const Cplx U = J % 2 ? Cplx(0, 1) : Cplx(1, 0);
    for (std::int64_t K = 0; K <= H; ++K) {
      const Cplx IW = Cplx(0, 1) * wRoot(N, K);
      Cplx X(0, 0);
      if (K % H == P)
        X += (1.0 - IW) / 2.0 * U;
      if ((H - K) % H == P)
        X += (1.0 + IW) / 2.0 * std::conj(U);
      M.at(K, J) = X.real();
      if (K != 0 && K != H)
        M.at(N - K, J) = X.imag();
    }
  }
  return M;
}

Matrix spl::realifyMatrix(const Matrix &A) {
  Matrix R(2 * A.rows(), 2 * A.cols());
  for (size_t I = 0; I != A.rows(); ++I)
    for (size_t J = 0; J != A.cols(); ++J) {
      const Cplx V = A.at(I, J);
      R.at(2 * I, 2 * J) = V.real();
      R.at(2 * I, 2 * J + 1) = -V.imag();
      R.at(2 * I + 1, 2 * J) = V.imag();
      R.at(2 * I + 1, 2 * J + 1) = V.real();
    }
  return R;
}
