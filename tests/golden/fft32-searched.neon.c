/* Generated by the SPL compiler (vector backend, neon, 2 lanes).
 * subroutine: cand
 * input elements: 32, output elements: 32 (complex, stored as interleaved re/im pairs of doubles)
 * layout: 2 transform columns, slot-major (buffer index = 2*slot + column)
 */
#include <arm_neon.h>
void cand(double *restrict y, const double *restrict x)
{
  static const double tab0[64] = {
    1.0, 0.0, 1.0, 0.0, 1.0, 0.0, 
    1.0, 0.0, 1.0, 0.0, 0.9807852804032304, -0.19509032201612825, 
    0.9238795325112867, -0.3826834323650898, 0.8314696123025452, -0.5555702330196022, 1.0, 0.0, 
    0.9238795325112867, -0.3826834323650898, 0.7071067811865476, -0.7071067811865476, 0.38268343236508984, -0.9238795325112867, 
    1.0, 0.0, 0.8314696123025452, -0.5555702330196022, 0.38268343236508984, -0.9238795325112867, 
    -0.1950903220161282, -0.9807852804032304, 1.0, 0.0, 0.7071067811865476, -0.7071067811865476, 
    0.0, -1.0, -0.7071067811865476, -0.7071067811865476, 1.0, 0.0, 
    0.5555702330196023, -0.8314696123025452, -0.3826834323650897, -0.9238795325112867, -0.9807852804032304, -0.1950903220161286, 
    1.0, 0.0, 0.38268343236508984, -0.9238795325112867, -0.7071067811865476, -0.7071067811865476, 
    -0.9238795325112868, 0.38268343236508967, 1.0, 0.0, 0.19509032201612833, -0.9807852804032304, 
    -0.9238795325112867, -0.3826834323650899, -0.5555702330196022, 0.8314696123025452
  };
  float64x2_t f0, f1, f2, f3, f5, f10, f11, f16, f17, f18, 
      f19, f21, f26, f27, f28, f29, f30, f31, f34, f35, 
      f36, f37, f38, f39, f40, f41, f42, f43, f44, f45, 
      f54, f55, f56, f57, f58, f59, f60, f61, f62, f63, 
      f64, f65, f66, f67, f68, f69, f80, f81, f83, f86, 
      f87, f88, f89, f90, f91, f92, f93;
  int i0, i7, i8;
  double t0[128];
  double t5[16];
  for (i0 = 0; i0 <= 3; ++i0) {
    f0 = vld1q_f64(x + 2*(2*i0));
    f1 = vld1q_f64(x + 2*(2*i0 + 1));
    f2 = vld1q_f64(x + 2*(2*i0 + 32));
    f3 = vld1q_f64(x + 2*(2*i0 + 33));
    f38 = vaddq_f64(f0, f2);
    f39 = vaddq_f64(f1, f3);
    f40 = vsubq_f64(f0, f2);
    f41 = vsubq_f64(f1, f3);
    f0 = vld1q_f64(x + 2*(2*i0 + 16));
    f1 = vld1q_f64(x + 2*(2*i0 + 17));
    f2 = vld1q_f64(x + 2*(2*i0 + 48));
    f3 = vld1q_f64(x + 2*(2*i0 + 49));
    f42 = vaddq_f64(f0, f2);
    f43 = vaddq_f64(f1, f3);
    f44 = vsubq_f64(f0, f2);
    f45 = vsubq_f64(f1, f3);
    f5 = f39;
    f5 = f41;
    f5 = f43;
    f5 = vnegq_f64(f44);
    f54 = vaddq_f64(f38, f42);
    f55 = vaddq_f64(f39, f43);
    f56 = vsubq_f64(f38, f42);
    f57 = vsubq_f64(f39, f43);
    f58 = vaddq_f64(f40, f45);
    f59 = vaddq_f64(f41, f5);
    f60 = vsubq_f64(f40, f45);
    f61 = vsubq_f64(f41, f5);
    f0 = vld1q_f64(x + 2*(2*i0 + 8));
    f1 = vld1q_f64(x + 2*(2*i0 + 9));
    f2 = vld1q_f64(x + 2*(2*i0 + 40));
    f3 = vld1q_f64(x + 2*(2*i0 + 41));
    f38 = vaddq_f64(f0, f2);
    f39 = vaddq_f64(f1, f3);
    f40 = vsubq_f64(f0, f2);
    f41 = vsubq_f64(f1, f3);
    f0 = vld1q_f64(x + 2*(2*i0 + 24));
    f1 = vld1q_f64(x + 2*(2*i0 + 25));
    f2 = vld1q_f64(x + 2*(2*i0 + 56));
    f3 = vld1q_f64(x + 2*(2*i0 + 57));
    f42 = vaddq_f64(f0, f2);
    f43 = vaddq_f64(f1, f3);
    f44 = vsubq_f64(f0, f2);
    f45 = vsubq_f64(f1, f3);
    f5 = f39;
    f5 = f41;
    f5 = f43;
    f5 = vnegq_f64(f44);
    f62 = vaddq_f64(f38, f42);
    f63 = vaddq_f64(f39, f43);
    f64 = vsubq_f64(f38, f42);
    f65 = vsubq_f64(f39, f43);
    f66 = vaddq_f64(f40, f45);
    f67 = vaddq_f64(f41, f5);
    f68 = vsubq_f64(f40, f45);
    f69 = vsubq_f64(f41, f5);
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
    f26 = vmulq_f64(vdupq_n_f64(0.7071067811865476), f66);
    f27 = vmulq_f64(vdupq_n_f64((-0.7071067811865476)), f67);
    f28 = vmulq_f64(vdupq_n_f64(0.7071067811865476), f67);
    f29 = vmulq_f64(vdupq_n_f64((-0.7071067811865476)), f66);
    f10 = vsubq_f64(f26, f27);
    f11 = vaddq_f64(f28, f29);
    f80 = f10;
    f81 = f11;
    f10 = f65;
    f11 = vnegq_f64(f64);
    f83 = f11;
    f30 = vmulq_f64(vdupq_n_f64((-0.7071067811865476)), f68);
    f31 = vmulq_f64(vdupq_n_f64((-0.7071067811865476)), f69);
    f10 = vsubq_f64(f30, f31);
    f11 = vaddq_f64(f31, f30);
    vst1q_f64(t0 + 2*(16*i0), vaddq_f64(f54, f62));
    vst1q_f64(t0 + 2*(16*i0 + 1), vaddq_f64(f55, f63));
    vst1q_f64(t0 + 2*(16*i0 + 8), vsubq_f64(f54, f62));
    vst1q_f64(t0 + 2*(16*i0 + 9), vsubq_f64(f55, f63));
    vst1q_f64(t0 + 2*(16*i0 + 2), vaddq_f64(f58, f80));
    vst1q_f64(t0 + 2*(16*i0 + 3), vaddq_f64(f59, f81));
    vst1q_f64(t0 + 2*(16*i0 + 10), vsubq_f64(f58, f80));
    vst1q_f64(t0 + 2*(16*i0 + 11), vsubq_f64(f59, f81));
    vst1q_f64(t0 + 2*(16*i0 + 4), vaddq_f64(f56, f65));
    vst1q_f64(t0 + 2*(16*i0 + 5), vaddq_f64(f57, f83));
    vst1q_f64(t0 + 2*(16*i0 + 12), vsubq_f64(f56, f65));
    vst1q_f64(t0 + 2*(16*i0 + 13), vsubq_f64(f57, f83));
    vst1q_f64(t0 + 2*(16*i0 + 6), vaddq_f64(f60, f10));
    vst1q_f64(t0 + 2*(16*i0 + 7), vaddq_f64(f61, f11));
    vst1q_f64(t0 + 2*(16*i0 + 14), vsubq_f64(f60, f10));
    vst1q_f64(t0 + 2*(16*i0 + 15), vsubq_f64(f61, f11));
  }
  for (i7 = 0; i7 <= 7; ++i7) {
    for (i8 = 0; i8 <= 3; ++i8) {
      f34 = vmulq_f64(vdupq_n_f64(tab0[8*i7 + 2*i8]), vld1q_f64(t0 + 2*(2*i7 + 16*i8)));
      f35 = vmulq_f64(vdupq_n_f64(tab0[8*i7 + 2*i8 + 1]), vld1q_f64(t0 + 2*(2*i7 + 16*i8 + 1)));
      f36 = vmulq_f64(vdupq_n_f64(tab0[8*i7 + 2*i8]), vld1q_f64(t0 + 2*(2*i7 + 16*i8 + 1)));
      f37 = vmulq_f64(vdupq_n_f64(tab0[8*i7 + 2*i8 + 1]), vld1q_f64(t0 + 2*(2*i7 + 16*i8)));
      vst1q_f64(t5 + 2*(2*i8), vsubq_f64(f34, f35));
      vst1q_f64(t5 + 2*(2*i8 + 1), vaddq_f64(f36, f37));
    }
    f16 = vld1q_f64(t5 + 2*(0));
    f17 = vld1q_f64(t5 + 2*(1));
    f18 = vld1q_f64(t5 + 2*(4));
    f19 = vld1q_f64(t5 + 2*(5));
    f86 = vaddq_f64(f16, f18);
    f87 = vaddq_f64(f17, f19);
    f88 = vsubq_f64(f16, f18);
    f89 = vsubq_f64(f17, f19);
    f16 = vld1q_f64(t5 + 2*(2));
    f17 = vld1q_f64(t5 + 2*(3));
    f18 = vld1q_f64(t5 + 2*(6));
    f19 = vld1q_f64(t5 + 2*(7));
    f90 = vaddq_f64(f16, f18);
    f91 = vaddq_f64(f17, f19);
    f92 = vsubq_f64(f16, f18);
    f93 = vsubq_f64(f17, f19);
    f21 = f87;
    f21 = f89;
    f21 = f91;
    f21 = vnegq_f64(f92);
    vst1q_f64(y + 2*(2*i7), vaddq_f64(f86, f90));
    vst1q_f64(y + 2*(2*i7 + 1), vaddq_f64(f87, f91));
    vst1q_f64(y + 2*(2*i7 + 32), vsubq_f64(f86, f90));
    vst1q_f64(y + 2*(2*i7 + 33), vsubq_f64(f87, f91));
    vst1q_f64(y + 2*(2*i7 + 16), vaddq_f64(f88, f93));
    vst1q_f64(y + 2*(2*i7 + 17), vaddq_f64(f89, f21));
    vst1q_f64(y + 2*(2*i7 + 48), vsubq_f64(f88, f93));
    vst1q_f64(y + 2*(2*i7 + 49), vsubq_f64(f89, f21));
  }
}
