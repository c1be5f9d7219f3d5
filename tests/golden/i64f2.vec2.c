/* Generated by the SPL compiler.
 * subroutine: I64F2
 * input elements: 128, output elements: 128
 */
void I64F2(double *restrict y, const double *restrict x)
{
  double f0, f1;
  int i0, i2;
  for (i2 = 0; i2 < 2; ++i2) {
    for (i0 = 0; i0 <= 31; ++i0) {
      f0 = x[8*i0 + i2];
      f1 = x[8*i0 + i2 + 2];
      y[8*i0 + i2] = f0 + f1;
      y[8*i0 + i2 + 2] = f0 - f1;
      f0 = x[8*i0 + i2 + 4];
      f1 = x[8*i0 + i2 + 6];
      y[8*i0 + i2 + 4] = f0 + f1;
      y[8*i0 + i2 + 6] = f0 - f1;
    }
  }
}
