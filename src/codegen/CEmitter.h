//===- codegen/CEmitter.h - C code generation -------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits a C subroutine from an i-code program (paper Section 3.5). C output
/// requires real-typed programs (run the complex-to-real lowering first; C89
/// has no complex type).
///
/// One renderer covers scalar and SIMD C. The target ISA fixes the lane
/// count m = laneCount(ISA), and the kernel is the paper's Section-5 wrapper
/// A -> A (x) I_m realized at the instruction level: m independent transform
/// columns are stored slot-major — buffer index m*S + j, where S is the
/// scalar kernel's physical double index (already including the complex
/// re/im split) and j the column — so the m copies of every scalar double
/// form one contiguous, SIMD-loadable group and every scalar instruction
/// becomes exactly one operation on a GNU vector of m doubles (one
/// `vector_size(8*m)` typedef, no intrinsics header; the C compiler selects
/// the instructions). m = 1 (VectorISA::Scalar, the default) is
/// plain C, and only there do the paper-facing options apply: the
/// stride/offset parameters of FFTW-style codelets and the outer-loop
/// vectorization wrapper.
///
/// Every emitted vector operation is lane-wise (no shuffles, no horizontal
/// ops, no FMA spelling), so column j's results depend only on column j's
/// inputs. That makes zero-padding partial lane groups safe and keeps Plan's
/// thread-count bit-identity. The emitted text does not forbid contraction,
/// though: AVX2 kernels build with -mfma under the C compiler's default
/// -ffp-contract, which may fuse a multiply and an add into one FMA. So the
/// scalar and vector kernels of one formula may differ in the last bits.
/// See docs/VECTORIZATION.md.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_CODEGEN_CEMITTER_H
#define SPL_CODEGEN_CEMITTER_H

#include "codegen/VectorISA.h"
#include "icode/ICode.h"

#include <string>

namespace spl {
namespace codegen {

/// C emission options.
struct CEmitOptions {
  /// Instruction set to target; decides the lane count m = laneCount(ISA)
  /// and so the vector typedef's width. Scalar (m = 1) renders plain C.
  VectorISA ISA = VectorISA::Scalar;

  /// Add (int ioff, int ooff, int istride, int ostride) parameters, in
  /// logical (complex) elements; the generated code then computes on
  /// non-contiguous data like an FFTW codelet. Scalar ISA only.
  bool StrideParams = false;

  /// When > 0, wrap the routine as A (x) I_m with m = VectorizeCount: an
  /// outer loop applies the transform to m interleaved vectors. Scalar ISA
  /// only (a wider ISA is itself the wrapper, one lane per column).
  int VectorizeCount = 0;

  /// Emit constant tables as pointers bound at run time through an extra
  /// function <name>_set_tables(const double *const *), instead of inline
  /// static initializers. Keeps generated files small for large transforms
  /// (a 2^20-point FFT carries megabytes of twiddles) — the runner computes
  /// the tables and passes them in, like FFTW's plan-time twiddle setup.
  /// Tables stay scalar (one value per logical entry) at every lane count
  /// and are broadcast into lanes at use sites.
  bool ExternalTables = false;

  /// Make the generated routine reentrant: temporary vectors too large for
  /// the stack are malloc'd/free'd per call instead of declared static.
  /// Required when many threads run the same kernel concurrently (the
  /// runtime layer's batched dispatch); off by default to keep the paper's
  /// static-storage behavior for single-threaded benchmarks.
  bool ThreadSafe = false;

  /// Extra text for the header comment (e.g. the source formula).
  std::string HeaderComment;
};

/// Renders \p P as a complete C translation unit containing one function
///   void <SubName>(double *y, const double *x, ...);
/// For programs lowered from complex data, buffers are interleaved (re,im)
/// pairs and 2*size doubles long, times laneCount(ISA) columns in the
/// slot-major layout.
std::string emitC(const icode::Program &P,
                  const CEmitOptions &Opts = CEmitOptions());

} // namespace codegen
} // namespace spl

#endif // SPL_CODEGEN_CEMITTER_H
