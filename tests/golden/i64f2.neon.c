/* Generated by the SPL compiler (vector backend, neon, 2 lanes).
 * subroutine: I64F2
 * input elements: 128, output elements: 128
 * layout: 2 transform columns, slot-major (buffer index = 2*slot + column)
 */
#include <arm_neon.h>
void I64F2(double *restrict y, const double *restrict x)
{
  float64x2_t f0, f1;
  int i0;
  for (i0 = 0; i0 <= 31; ++i0) {
    f0 = vld1q_f64(x + 2*(4*i0));
    f1 = vld1q_f64(x + 2*(4*i0 + 1));
    vst1q_f64(y + 2*(4*i0), vaddq_f64(f0, f1));
    vst1q_f64(y + 2*(4*i0 + 1), vsubq_f64(f0, f1));
    f0 = vld1q_f64(x + 2*(4*i0 + 2));
    f1 = vld1q_f64(x + 2*(4*i0 + 3));
    vst1q_f64(y + 2*(4*i0 + 2), vaddq_f64(f0, f1));
    vst1q_f64(y + 2*(4*i0 + 3), vsubq_f64(f0, f1));
  }
}
