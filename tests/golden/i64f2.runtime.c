/* Generated by the SPL compiler.
 * subroutine: I64F2
 * input elements: 128, output elements: 128
 */
void I64F2(double *restrict y, const double *restrict x)
{
  double f0, f1;
  int i0;
  for (i0 = 0; i0 <= 31; ++i0) {
    f0 = x[4*i0];
    f1 = x[4*i0 + 1];
    y[4*i0] = f0 + f1;
    y[4*i0 + 1] = f0 - f1;
    f0 = x[4*i0 + 2];
    f1 = x[4*i0 + 3];
    y[4*i0 + 2] = f0 + f1;
    y[4*i0 + 3] = f0 - f1;
  }
}
