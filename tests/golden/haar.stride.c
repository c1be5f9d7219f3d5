/* Generated by the SPL compiler.
 * subroutine: haar8
 * input elements: 8, output elements: 8
 */
void haar8(double *restrict y, const double *restrict x, int ioff, int ooff, int istride, int ostride)
{
  double f0, f1, f2, f3, f4, f5, f6, f7;
  f0 = x[ioff + istride*(0)] + x[ioff + istride*(1)];
  f1 = x[ioff + istride*(0)] - x[ioff + istride*(1)];
  f2 = x[ioff + istride*(2)] + x[ioff + istride*(3)];
  f3 = x[ioff + istride*(2)] - x[ioff + istride*(3)];
  f4 = x[ioff + istride*(4)] + x[ioff + istride*(5)];
  f5 = x[ioff + istride*(4)] - x[ioff + istride*(5)];
  f6 = x[ioff + istride*(6)] + x[ioff + istride*(7)];
  f7 = x[ioff + istride*(6)] - x[ioff + istride*(7)];
  y[ooff + ostride*(0)] = f0;
  y[ooff + ostride*(1)] = f2;
  y[ooff + ostride*(2)] = f4;
  y[ooff + ostride*(3)] = f6;
  y[ooff + ostride*(4)] = f1;
  y[ooff + ostride*(5)] = f3;
  y[ooff + ostride*(6)] = f5;
  y[ooff + ostride*(7)] = f7;
}
