/* Generated by the SPL compiler (vector backend, avx2, 4 lanes).
 * subroutine: haar8
 * input elements: 8, output elements: 8
 * layout: 4 transform columns, slot-major (buffer index = 4*slot + column)
 */
#include <immintrin.h>
void haar8(double *restrict y, const double *restrict x)
{
  __m256d f0, f1, f2, f3, f4, f5, f6, f7;
  f0 = _mm256_add_pd(_mm256_loadu_pd(x + 4*(0)), _mm256_loadu_pd(x + 4*(1)));
  f1 = _mm256_sub_pd(_mm256_loadu_pd(x + 4*(0)), _mm256_loadu_pd(x + 4*(1)));
  f2 = _mm256_add_pd(_mm256_loadu_pd(x + 4*(2)), _mm256_loadu_pd(x + 4*(3)));
  f3 = _mm256_sub_pd(_mm256_loadu_pd(x + 4*(2)), _mm256_loadu_pd(x + 4*(3)));
  f4 = _mm256_add_pd(_mm256_loadu_pd(x + 4*(4)), _mm256_loadu_pd(x + 4*(5)));
  f5 = _mm256_sub_pd(_mm256_loadu_pd(x + 4*(4)), _mm256_loadu_pd(x + 4*(5)));
  f6 = _mm256_add_pd(_mm256_loadu_pd(x + 4*(6)), _mm256_loadu_pd(x + 4*(7)));
  f7 = _mm256_sub_pd(_mm256_loadu_pd(x + 4*(6)), _mm256_loadu_pd(x + 4*(7)));
  _mm256_storeu_pd(y + 4*(0), f0);
  _mm256_storeu_pd(y + 4*(1), f2);
  _mm256_storeu_pd(y + 4*(2), f4);
  _mm256_storeu_pd(y + 4*(3), f6);
  _mm256_storeu_pd(y + 4*(4), f1);
  _mm256_storeu_pd(y + 4*(5), f3);
  _mm256_storeu_pd(y + 4*(6), f5);
  _mm256_storeu_pd(y + 4*(7), f7);
}
