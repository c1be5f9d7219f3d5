/* Generated by the SPL compiler (vector backend, neon, 2 lanes).
 * subroutine: haar8
 * input elements: 8, output elements: 8
 * layout: 2 transform columns, slot-major (buffer index = 2*slot + column)
 */
#include <arm_neon.h>
void haar8(double *restrict y, const double *restrict x)
{
  float64x2_t f0, f1, f2, f3, f4, f5, f6, f7;
  f0 = vaddq_f64(vld1q_f64(x + 2*(0)), vld1q_f64(x + 2*(1)));
  f1 = vsubq_f64(vld1q_f64(x + 2*(0)), vld1q_f64(x + 2*(1)));
  f2 = vaddq_f64(vld1q_f64(x + 2*(2)), vld1q_f64(x + 2*(3)));
  f3 = vsubq_f64(vld1q_f64(x + 2*(2)), vld1q_f64(x + 2*(3)));
  f4 = vaddq_f64(vld1q_f64(x + 2*(4)), vld1q_f64(x + 2*(5)));
  f5 = vsubq_f64(vld1q_f64(x + 2*(4)), vld1q_f64(x + 2*(5)));
  f6 = vaddq_f64(vld1q_f64(x + 2*(6)), vld1q_f64(x + 2*(7)));
  f7 = vsubq_f64(vld1q_f64(x + 2*(6)), vld1q_f64(x + 2*(7)));
  vst1q_f64(y + 2*(0), f0);
  vst1q_f64(y + 2*(1), f2);
  vst1q_f64(y + 2*(2), f4);
  vst1q_f64(y + 2*(3), f6);
  vst1q_f64(y + 2*(4), f1);
  vst1q_f64(y + 2*(5), f3);
  vst1q_f64(y + 2*(6), f5);
  vst1q_f64(y + 2*(7), f7);
}
