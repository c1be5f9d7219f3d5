/* Generated by the SPL compiler (vector backend, avx2, 4 lanes).
 * subroutine: I64F2
 * input elements: 128, output elements: 128
 * layout: 4 transform columns, slot-major (buffer index = 4*slot + column)
 */
#include <immintrin.h>
void I64F2(double *restrict y, const double *restrict x)
{
  __m256d f0, f1;
  int i0;
  for (i0 = 0; i0 <= 31; ++i0) {
    f0 = _mm256_loadu_pd(x + 4*(4*i0));
    f1 = _mm256_loadu_pd(x + 4*(4*i0 + 1));
    _mm256_storeu_pd(y + 4*(4*i0), _mm256_add_pd(f0, f1));
    _mm256_storeu_pd(y + 4*(4*i0 + 1), _mm256_sub_pd(f0, f1));
    f0 = _mm256_loadu_pd(x + 4*(4*i0 + 2));
    f1 = _mm256_loadu_pd(x + 4*(4*i0 + 3));
    _mm256_storeu_pd(y + 4*(4*i0 + 2), _mm256_add_pd(f0, f1));
    _mm256_storeu_pd(y + 4*(4*i0 + 3), _mm256_sub_pd(f0, f1));
  }
}
