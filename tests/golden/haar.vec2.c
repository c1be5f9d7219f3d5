/* Generated by the SPL compiler.
 * subroutine: haar8
 * input elements: 8, output elements: 8
 */
void haar8(double *restrict y, const double *restrict x)
{
  double f0, f1, f2, f3, f4, f5, f6, f7;
  int i3;
  for (i3 = 0; i3 < 2; ++i3) {
    f0 = x[i3] + x[i3 + 2];
    f1 = x[i3] - x[i3 + 2];
    f2 = x[i3 + 4] + x[i3 + 6];
    f3 = x[i3 + 4] - x[i3 + 6];
    f4 = x[i3 + 8] + x[i3 + 10];
    f5 = x[i3 + 8] - x[i3 + 10];
    f6 = x[i3 + 12] + x[i3 + 14];
    f7 = x[i3 + 12] - x[i3 + 14];
    y[i3] = f0;
    y[i3 + 2] = f2;
    y[i3 + 4] = f4;
    y[i3 + 6] = f6;
    y[i3 + 8] = f1;
    y[i3 + 10] = f3;
    y[i3 + 12] = f5;
    y[i3 + 14] = f7;
  }
}
