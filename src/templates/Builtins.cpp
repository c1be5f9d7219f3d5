//===- templates/Builtins.cpp - Built-in templates ---------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The start-up template file: SPL-source definitions of every built-in
/// parameterized matrix and matrix operation, processed as if defined at the
/// beginning of each program (paper Section 3.2). Later definitions override
/// earlier ones, so specialized templates (e.g. (F 2)) follow the general
/// case they refine. Explicit matrices (matrix/diagonal/permutation) and the
/// general tensor-product split are native expansion rules in the expander,
/// since their semantics depend on element data rather than integer
/// parameters; a user template matching the same shape still overrides them.
///
//===----------------------------------------------------------------------===//

#include "templates/Registry.h"

using namespace spl;

const char *tpl::builtinTemplatesText() {
  return R"SPL(
; ---------------------------------------------------------------------------
; Parameterized matrices
; ---------------------------------------------------------------------------

; (I n): the identity, a copy loop.
(template (I n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = $in($i0)
   end))

; (F n): the DFT by definition (the paper's example template).
(template (F n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = 0
     do $i1 = 0, n_-1
        $r0 = $i0 * $i1
        $f0 = W(n_ $r0) * $in($i1)
        $out($i0) = $out($i0) + $f0
     end
   end))

; (F 1) and (F 2): straight-line special cases (defined after the general
; template so they take precedence).
(template (F 1)
  ($out(0) = $in(0)))

(template (F 2)
  ($f0 = $in(0)
   $f1 = $in(1)
   $out(0) = $f0 + $f1
   $out(1) = $f0 - $f1))

; (L mn n): the stride permutation; with m = mn/n,
; y[p*m + q] = x[q*n + p] for p < n, q < m.
(template (L mn_ n_) [mn_ >= 1 && n_ >= 1 && mn_ % n_ == 0]
  (do $i0 = 0, n_-1
     do $i1 = 0, mn_/n_-1
        $out($i0 * (mn_/n_) + $i1) = $in($i1 * n_ + $i0)
     end
   end))

; (T mn n): the twiddle matrix of Equation 4, a diagonal scaling.
(template (T mn_ n_) [mn_ >= 1 && n_ >= 1 && mn_ % n_ == 0]
  (do $i0 = 0, mn_-1
     $f0 = TW(mn_ n_ $i0) * $in($i0)
     $out($i0) = $f0
   end))

; (WHT n): the Walsh-Hadamard transform by definition.
(template (WHT n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = 0
     do $i1 = 0, n_-1
        $f0 = WHTE(n_ $i0 $i1) * $in($i1)
        $out($i0) = $out($i0) + $f0
     end
   end))

; (DCT2 n) and (DCT4 n): unnormalized DCTs by definition.
(template (DCT2 n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = 0
     do $i1 = 0, n_-1
        $f0 = DCT2E(n_ $i0 $i1) * $in($i1)
        $out($i0) = $out($i0) + $f0
     end
   end))

(template (DCT4 n_) [n_ >= 1]
  (do $i0 = 0, n_-1
     $out($i0) = 0
     do $i1 = 0, n_-1
        $f0 = DCT4E(n_ $i0 $i1) * $in($i1)
        $out($i0) = $out($i0) + $f0
     end
   end))

; (S n): the real split butterfly of rdft_n = S_n realify(F_{n/2}). It
; reads Z = F_{n/2} z as n/2 interleaved (re, im) points and writes the
; halfcomplex spectrum. One pair Z_k, Z_{n/2-k} gives bins k and n/2-k:
;   E = (Z_k + conj Z_{n/2-k}) / 2,  O = (Z_k - conj Z_{n/2-k}) / 2i,
;   X_k = E + w_n^k O,  X_{n/2-k} = conj(E - w_n^k O).
; Bin n/4 pairs with itself (w_n^{n/4} = -i, so X_{n/4} = conj Z_{n/4}).
(template (S n_) [n_ >= 4 && n_ % 4 == 0]
  ($out(0) = $in(0) + $in(1)
   $out(n_/2) = $in(0) - $in(1)
   do $i0 = 1, n_/4-1
      $f0 = $in(2*$i0)
      $f1 = $in(2*$i0+1)
      $f2 = $in(n_-2*$i0)
      $f3 = $in(n_-2*$i0+1)
      $f4 = 0.5 * ($f0 + $f2)
      $f5 = 0.5 * ($f1 - $f3)
      $f6 = 0.5 * ($f1 + $f3)
      $f7 = 0.5 * ($f2 - $f0)
      $f8 = WR(n_ $i0) * $f6 - WI(n_ $i0) * $f7
      $f9 = WR(n_ $i0) * $f7 + WI(n_ $i0) * $f6
      $out($i0) = $f4 + $f8
      $out(n_-$i0) = $f5 + $f9
      $out(n_/2-$i0) = $f4 - $f8
      $out(n_/2+$i0) = $f9 - $f5
   end
   $out(n_/4) = $in(n_/2)
   $out(3*n_/4) = -$in(n_/2+1)))

(template (S 2)
  ($out(0) = $in(0) + $in(1)
   $out(1) = $in(0) - $in(1)))

; ---------------------------------------------------------------------------
; Matrix operations
; ---------------------------------------------------------------------------

; (compose A B): y = A (B x) through a temporary vector (the paper's
; compose template).
(template (compose A_ B_) [A_.in_size == B_.out_size]
  (B_($in, $t0, 0, 0, 1, 1)
   A_($t0, $out, 0, 0, 1, 1)))

; (tensor (I n) A): n independent applications of A to consecutive
; sub-vectors (the "parallel" interpretation of Section 2.1).
(template (tensor (I n_) A_) [n_ >= 1]
  (do $i0 = 0, n_-1
     A_($in, $out, $i0 * A_.in_size, $i0 * A_.out_size, 1, 1)
   end))

; (tensor A (I n)): A applied to strided sub-vectors (the "vector"
; interpretation of Section 2.1).
(template (tensor A_ (I n_)) [n_ >= 1]
  (do $i0 = 0, n_-1
     A_($in, $out, $i0, $i0, n_, n_)
   end))

; (direct-sum A B): A on the leading block, B on the trailing block.
(template (direct-sum A_ B_)
  (A_($in, $out, 0, 0, 1, 1)
   B_($in, $out, A_.in_size, A_.out_size, 1, 1)))

; ---------------------------------------------------------------------------
; Fused stages ("the effect of loop fusion", Section 3.2). Defined last, so
; they take precedence over the generic compose template wherever their
; patterns apply. Both avoid a full-size pass and a full-size temporary.
; ---------------------------------------------------------------------------

; (A (x) I_n) . T^{mn}_n: scale each strided group into a small buffer while
; gathering, then apply A to it.
(template (compose (tensor A_ (I n_)) (T mn_ n_))
          [mn_ == A_.in_size * n_ && A_.in_size >= 1]
  (do $i0 = 0, n_-1
     do $i1 = 0, A_.in_size-1
        $t0($i1) = TW(mn_ n_ $i1 * n_ + $i0) * $in($i1 * n_ + $i0)
     end
     A_($t0, $out, 0, $i0, 1, n_)
   end))

; (I_r (x) B) . L^{mn}_r: the stride permutation disappears into the input
; addressing of each B application.
(template (compose (tensor (I r_) B_) (L mn_ r_))
          [mn_ == r_ * B_.in_size]
  (do $i0 = 0, r_-1
     B_($in, $out, $i0, $i0 * B_.out_size, r_, 1)
   end))
)SPL";
}
