/* Generated by the SPL compiler (vector backend, avx2, 4 lanes).
 * subroutine: cand
 * input elements: 32, output elements: 32 (complex, stored as interleaved re/im pairs of doubles)
 * layout: 4 transform columns, slot-major (buffer index = 4*slot + column)
 */
#include <immintrin.h>
static const double *tab0;
void cand_set_tables(const double *const *tables)
{
  tab0 = tables[0];
}

void cand(double *restrict y, const double *restrict x)
{
  __m256d f0, f1, f2, f3, f5, f10, f11, f16, f17, f18, 
      f19, f21, f26, f27, f28, f29, f30, f31, f34, f35, 
      f36, f37, f38, f39, f40, f41, f42, f43, f44, f45, 
      f54, f55, f56, f57, f58, f59, f60, f61, f62, f63, 
      f64, f65, f66, f67, f68, f69, f80, f81, f83, f86, 
      f87, f88, f89, f90, f91, f92, f93;
  int i0, i7, i8;
  double t0[256];
  double t5[32];
  for (i0 = 0; i0 <= 3; ++i0) {
    f0 = _mm256_loadu_pd(x + 4*(2*i0));
    f1 = _mm256_loadu_pd(x + 4*(2*i0 + 1));
    f2 = _mm256_loadu_pd(x + 4*(2*i0 + 32));
    f3 = _mm256_loadu_pd(x + 4*(2*i0 + 33));
    f38 = _mm256_add_pd(f0, f2);
    f39 = _mm256_add_pd(f1, f3);
    f40 = _mm256_sub_pd(f0, f2);
    f41 = _mm256_sub_pd(f1, f3);
    f0 = _mm256_loadu_pd(x + 4*(2*i0 + 16));
    f1 = _mm256_loadu_pd(x + 4*(2*i0 + 17));
    f2 = _mm256_loadu_pd(x + 4*(2*i0 + 48));
    f3 = _mm256_loadu_pd(x + 4*(2*i0 + 49));
    f42 = _mm256_add_pd(f0, f2);
    f43 = _mm256_add_pd(f1, f3);
    f44 = _mm256_sub_pd(f0, f2);
    f45 = _mm256_sub_pd(f1, f3);
    f5 = f39;
    f5 = f41;
    f5 = f43;
    f5 = _mm256_xor_pd(f44, _mm256_set1_pd(-0.0));
    f54 = _mm256_add_pd(f38, f42);
    f55 = _mm256_add_pd(f39, f43);
    f56 = _mm256_sub_pd(f38, f42);
    f57 = _mm256_sub_pd(f39, f43);
    f58 = _mm256_add_pd(f40, f45);
    f59 = _mm256_add_pd(f41, f5);
    f60 = _mm256_sub_pd(f40, f45);
    f61 = _mm256_sub_pd(f41, f5);
    f0 = _mm256_loadu_pd(x + 4*(2*i0 + 8));
    f1 = _mm256_loadu_pd(x + 4*(2*i0 + 9));
    f2 = _mm256_loadu_pd(x + 4*(2*i0 + 40));
    f3 = _mm256_loadu_pd(x + 4*(2*i0 + 41));
    f38 = _mm256_add_pd(f0, f2);
    f39 = _mm256_add_pd(f1, f3);
    f40 = _mm256_sub_pd(f0, f2);
    f41 = _mm256_sub_pd(f1, f3);
    f0 = _mm256_loadu_pd(x + 4*(2*i0 + 24));
    f1 = _mm256_loadu_pd(x + 4*(2*i0 + 25));
    f2 = _mm256_loadu_pd(x + 4*(2*i0 + 56));
    f3 = _mm256_loadu_pd(x + 4*(2*i0 + 57));
    f42 = _mm256_add_pd(f0, f2);
    f43 = _mm256_add_pd(f1, f3);
    f44 = _mm256_sub_pd(f0, f2);
    f45 = _mm256_sub_pd(f1, f3);
    f5 = f39;
    f5 = f41;
    f5 = f43;
    f5 = _mm256_xor_pd(f44, _mm256_set1_pd(-0.0));
    f62 = _mm256_add_pd(f38, f42);
    f63 = _mm256_add_pd(f39, f43);
    f64 = _mm256_sub_pd(f38, f42);
    f65 = _mm256_sub_pd(f39, f43);
    f66 = _mm256_add_pd(f40, f45);
    f67 = _mm256_add_pd(f41, f5);
    f68 = _mm256_sub_pd(f40, f45);
    f69 = _mm256_sub_pd(f41, f5);
    f10 = f54;
    f11 = f55;
    f10 = f58;
    f11 = f59;
    f10 = f56;
    f11 = f57;
    f10 = f60;
    f11 = f61;
    f10 = f62;
    f11 = f63;
    f26 = _mm256_mul_pd(_mm256_set1_pd(0.7071067811865476), f66);
    f27 = _mm256_mul_pd(_mm256_set1_pd((-0.7071067811865476)), f67);
    f28 = _mm256_mul_pd(_mm256_set1_pd(0.7071067811865476), f67);
    f29 = _mm256_mul_pd(_mm256_set1_pd((-0.7071067811865476)), f66);
    f10 = _mm256_sub_pd(f26, f27);
    f11 = _mm256_add_pd(f28, f29);
    f80 = f10;
    f81 = f11;
    f10 = f65;
    f11 = _mm256_xor_pd(f64, _mm256_set1_pd(-0.0));
    f83 = f11;
    f30 = _mm256_mul_pd(_mm256_set1_pd((-0.7071067811865476)), f68);
    f31 = _mm256_mul_pd(_mm256_set1_pd((-0.7071067811865476)), f69);
    f10 = _mm256_sub_pd(f30, f31);
    f11 = _mm256_add_pd(f31, f30);
    _mm256_storeu_pd(t0 + 4*(16*i0), _mm256_add_pd(f54, f62));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 1), _mm256_add_pd(f55, f63));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 8), _mm256_sub_pd(f54, f62));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 9), _mm256_sub_pd(f55, f63));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 2), _mm256_add_pd(f58, f80));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 3), _mm256_add_pd(f59, f81));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 10), _mm256_sub_pd(f58, f80));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 11), _mm256_sub_pd(f59, f81));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 4), _mm256_add_pd(f56, f65));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 5), _mm256_add_pd(f57, f83));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 12), _mm256_sub_pd(f56, f65));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 13), _mm256_sub_pd(f57, f83));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 6), _mm256_add_pd(f60, f10));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 7), _mm256_add_pd(f61, f11));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 14), _mm256_sub_pd(f60, f10));
    _mm256_storeu_pd(t0 + 4*(16*i0 + 15), _mm256_sub_pd(f61, f11));
  }
  for (i7 = 0; i7 <= 7; ++i7) {
    for (i8 = 0; i8 <= 3; ++i8) {
      f34 = _mm256_mul_pd(_mm256_set1_pd(tab0[8*i7 + 2*i8]), _mm256_loadu_pd(t0 + 4*(2*i7 + 16*i8)));
      f35 = _mm256_mul_pd(_mm256_set1_pd(tab0[8*i7 + 2*i8 + 1]), _mm256_loadu_pd(t0 + 4*(2*i7 + 16*i8 + 1)));
      f36 = _mm256_mul_pd(_mm256_set1_pd(tab0[8*i7 + 2*i8]), _mm256_loadu_pd(t0 + 4*(2*i7 + 16*i8 + 1)));
      f37 = _mm256_mul_pd(_mm256_set1_pd(tab0[8*i7 + 2*i8 + 1]), _mm256_loadu_pd(t0 + 4*(2*i7 + 16*i8)));
      _mm256_storeu_pd(t5 + 4*(2*i8), _mm256_sub_pd(f34, f35));
      _mm256_storeu_pd(t5 + 4*(2*i8 + 1), _mm256_add_pd(f36, f37));
    }
    f16 = _mm256_loadu_pd(t5 + 4*(0));
    f17 = _mm256_loadu_pd(t5 + 4*(1));
    f18 = _mm256_loadu_pd(t5 + 4*(4));
    f19 = _mm256_loadu_pd(t5 + 4*(5));
    f86 = _mm256_add_pd(f16, f18);
    f87 = _mm256_add_pd(f17, f19);
    f88 = _mm256_sub_pd(f16, f18);
    f89 = _mm256_sub_pd(f17, f19);
    f16 = _mm256_loadu_pd(t5 + 4*(2));
    f17 = _mm256_loadu_pd(t5 + 4*(3));
    f18 = _mm256_loadu_pd(t5 + 4*(6));
    f19 = _mm256_loadu_pd(t5 + 4*(7));
    f90 = _mm256_add_pd(f16, f18);
    f91 = _mm256_add_pd(f17, f19);
    f92 = _mm256_sub_pd(f16, f18);
    f93 = _mm256_sub_pd(f17, f19);
    f21 = f87;
    f21 = f89;
    f21 = f91;
    f21 = _mm256_xor_pd(f92, _mm256_set1_pd(-0.0));
    _mm256_storeu_pd(y + 4*(2*i7), _mm256_add_pd(f86, f90));
    _mm256_storeu_pd(y + 4*(2*i7 + 1), _mm256_add_pd(f87, f91));
    _mm256_storeu_pd(y + 4*(2*i7 + 32), _mm256_sub_pd(f86, f90));
    _mm256_storeu_pd(y + 4*(2*i7 + 33), _mm256_sub_pd(f87, f91));
    _mm256_storeu_pd(y + 4*(2*i7 + 16), _mm256_add_pd(f88, f93));
    _mm256_storeu_pd(y + 4*(2*i7 + 17), _mm256_add_pd(f89, f21));
    _mm256_storeu_pd(y + 4*(2*i7 + 48), _mm256_sub_pd(f88, f93));
    _mm256_storeu_pd(y + 4*(2*i7 + 49), _mm256_sub_pd(f89, f21));
  }
}
