//===- codegen/VectorISA.h - Vector ISA detection and naming ----*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime detection of the host's SIMD instruction set, mirroring
/// support::HostInfo's probe-once style, plus the CodegenVariant the
/// runtime planner picks for each plan's kernel. The paper's
/// Section-5 vectorization wrapper (A -> A (x) I_m) turns m independent
/// transform columns into one SIMD lane group; the detected ISA decides m
/// (the lane count), the width of the one GNU vector typedef codegen::emitC
/// renders, and the -m flags the kernel is built with. Those three facts
/// and the name token are all that differ between ISAs.
///
/// The probe is overridable with SPL_VECTOR_ISA=scalar|avx2|neon|auto —
/// CI forces `scalar` to prove that wisdom and plans written by a
/// vector-capable host degrade cleanly, and tests force a concrete ISA to
/// pin emission output. A forced `neon` builds and runs on any GCC/clang
/// host (2-lane vectors need no NEON header; x86 runs them as SSE2).
/// Forcing an ISA the hardware lacks is caught by the planner's guarded
/// trial execution (the kernel dies on SIGILL in its trial child and the
/// plan demotes to scalar). See docs/VECTORIZATION.md.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_CODEGEN_VECTORISA_H
#define SPL_CODEGEN_VECTORISA_H

#include <string>

namespace spl {
namespace codegen {

/// The instruction sets the C emitter can target.
enum class VectorISA {
  Scalar, ///< Plain C, one lane; as a host probe: no usable SIMD.
  AVX2,   ///< x86-64 AVX2, 4 doubles per group (vector_size(32)).
  NEON,   ///< AArch64 Advanced SIMD, 2 doubles per group (vector_size(16)).
};

/// Which ISA a kernel was (or should be) emitted for. The runtime planner
/// decides it once per plan (docs/VECTORIZATION.md); the search and wisdom
/// never see it.
enum class CodegenVariant {
  Scalar, ///< codegen::emitC at VectorISA::Scalar — one transform per call.
  Vector, ///< codegen::emitC at a SIMD ISA — laneCount() per call.
};

/// Stable lowercase token ("scalar" | "avx2" | "neon").
const char *isaName(VectorISA ISA);

/// Parses an ISA token (isaName() values plus "auto"); returns false on an
/// unknown name. "auto" yields the hardware probe's answer.
bool parseISA(const std::string &Name, VectorISA &Out);

/// Stable lowercase token ("scalar" | "vector").
const char *variantName(CodegenVariant V);

/// The ISA codegen targets on this host: the hardware probe, unless
/// SPL_VECTOR_ISA overrides it. Probed once and cached (first call wins;
/// tests that change the environment spawn fresh processes).
VectorISA detectISA();

/// The hardware's answer alone, ignoring SPL_VECTOR_ISA (bench logging).
VectorISA hardwareISA();

/// Doubles per SIMD lane group: 4 (AVX2), 2 (NEON), 1 (Scalar). This is
/// the m of the A (x) I_m vectorization wrapper.
int laneCount(VectorISA ISA);

/// Extra compiler flags a kernel emitted for \p ISA needs ("-mavx2 -mfma"
/// for AVX2; "" for Scalar and for NEON, whose 2-lane vectors are baseline
/// on AArch64 and on x86-64, as SSE2).
std::string isaCompilerFlags(VectorISA ISA);

/// True when the vector backend can run here (detectISA() != Scalar).
bool vectorBackendAvailable();

} // namespace codegen
} // namespace spl

#endif // SPL_CODEGEN_VECTORISA_H
