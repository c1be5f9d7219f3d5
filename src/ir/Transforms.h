//===- ir/Transforms.h - Transform entry functions --------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-form element definitions of the signal transforms the paper uses:
/// the DFT, the stride permutation, the twiddle matrix, the Walsh-Hadamard
/// transform, and DCT types II and IV. These back both the dense-matrix
/// semantics of formula nodes and the compiler's intrinsic functions
/// (W, TW, ...), so the oracle and the generated code share one definition.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_IR_TRANSFORMS_H
#define SPL_IR_TRANSFORMS_H

#include "ir/Matrix.h"

#include <cstdint>

namespace spl {

/// w_n^k = exp(-2*pi*i*k/n), the DFT root of unity (paper Section 1).
Cplx wRoot(std::int64_t N, std::int64_t K);

/// Element (p,q) of the n-point DFT matrix F_n: w_n^{p*q}.
Cplx dftEntry(std::int64_t N, std::int64_t P, std::int64_t Q);

/// Diagonal element i of the twiddle matrix T^{mn}_n (paper Equation 4):
/// with j = i / n and k = i mod n, the value is w_mn^{j*k}.
Cplx twiddleEntry(std::int64_t MN, std::int64_t N, std::int64_t I);

/// Image of output index i under the stride permutation L^{mn}_n: the row-i
/// entry of L is at column strideIndex(mn, n, i), i.e. y[i] = x[that].
/// Writing i = p*m + q with m = mn/n (p < n, q < m), the source is q*n + p.
std::int64_t strideIndex(std::int64_t MN, std::int64_t N, std::int64_t I);

/// Element (k,j) of the n-point Walsh-Hadamard transform: (-1)^{popcount(k&j)}
/// (n must be a power of two).
double whtEntry(std::int64_t N, std::int64_t K, std::int64_t J);

/// Element (k,j) of the unnormalized DCT type II: cos(k*(2j+1)*pi / (2n)).
double dct2Entry(std::int64_t N, std::int64_t K, std::int64_t J);

/// Element (k,j) of the unnormalized DCT type III (the transpose of the
/// DCT-II definition above): cos(j*(2k+1)*pi / (2n)).
double dct3Entry(std::int64_t N, std::int64_t K, std::int64_t J);

/// Element (k,j) of the unnormalized DCT type IV:
/// cos((2k+1)*(2j+1)*pi / (4n)).
double dct4Entry(std::int64_t N, std::int64_t K, std::int64_t J);

/// Element (k,j) of the real-input DFT in FFTW's "r2hc" halfcomplex
/// layout: row k <= n/2 produces Re Y_k = sum_j x_j cos(2 pi k j / n),
/// and row k > n/2 produces Im Y_{n-k} = -sum_j x_j sin(2 pi (n-k) j / n),
/// so the output vector is (r_0, r_1, ..., r_{n/2}, i_{n/2-1}, ..., i_1).
double rdftEntry(std::int64_t N, std::int64_t K, std::int64_t J);

/// Dense n-point DFT matrix.
Matrix dftMatrix(std::int64_t N);

/// Dense stride permutation matrix L^{mn}_n.
Matrix strideMatrix(std::int64_t MN, std::int64_t N);

/// Dense twiddle matrix T^{mn}_n.
Matrix twiddleMatrix(std::int64_t MN, std::int64_t N);

/// Dense n-point WHT matrix.
Matrix whtMatrix(std::int64_t N);

/// Dense unnormalized DCT-II matrix.
Matrix dct2Matrix(std::int64_t N);

/// Dense unnormalized DCT-III matrix (DCT-II transposed).
Matrix dct3Matrix(std::int64_t N);

/// Dense unnormalized DCT-IV matrix.
Matrix dct4Matrix(std::int64_t N);

/// Dense real n x n matrix of the halfcomplex real-input DFT (rdftEntry).
Matrix rdftMatrix(std::int64_t N);

/// Dense real n x n matrix of the split butterfly S_n (n even): it reads
/// Z = F_{n/2} z as n/2 interleaved (re, im) points and writes the
/// halfcomplex spectrum X_k = E_k + w_n^k O_k, k = 0 .. n/2, with
/// E_k = (Z_k + conj Z_{n/2-k}) / 2, O_k = (Z_k - conj Z_{n/2-k}) / 2i and
/// Z_{n/2} = Z_0. rdftMatrix(n) = S_n realifyMatrix(dftMatrix(n/2)).
Matrix rdftSplitMatrix(std::int64_t N);

/// The real 2m x 2n matrix that acts on n complex points stored as
/// interleaved (re, im) doubles the way the m x n matrix \p A acts on the
/// points.
Matrix realifyMatrix(const Matrix &A);

} // namespace spl

#endif // SPL_IR_TRANSFORMS_H
