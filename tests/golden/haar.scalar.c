/* Generated by the SPL compiler.
 * subroutine: haar8
 * input elements: 8, output elements: 8
 */
void haar8(double *restrict y, const double *restrict x)
{
  double f0, f1, f2, f3, f4, f5, f6, f7;
  f0 = x[0] + x[1];
  f1 = x[0] - x[1];
  f2 = x[2] + x[3];
  f3 = x[2] - x[3];
  f4 = x[4] + x[5];
  f5 = x[4] - x[5];
  f6 = x[6] + x[7];
  f7 = x[6] - x[7];
  y[0] = f0;
  y[1] = f2;
  y[2] = f4;
  y[3] = f6;
  y[4] = f1;
  y[5] = f3;
  y[6] = f5;
  y[7] = f7;
}
