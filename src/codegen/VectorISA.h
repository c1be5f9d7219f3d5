//===- codegen/VectorISA.h - Vector ISA detection and naming ----*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runtime detection of the host's SIMD instruction set, mirroring
/// support::HostInfo's probe-once style, plus the CodegenVariant dimension
/// the search engine and runtime thread through kernel builds. The paper's
/// Section-5 vectorization wrapper (A -> A (x) I_m) turns m independent
/// transform columns into one SIMD lane group; the detected ISA decides m
/// (the lane count) and which intrinsics codegen::emitC renders.
///
/// The probe is overridable with SPL_VECTOR_ISA=scalar|avx2|neon|auto —
/// CI forces `scalar` to prove that wisdom and plans written by a
/// vector-capable host degrade cleanly, and tests force a concrete ISA to
/// pin emission output. Forcing an ISA the hardware lacks is caught by the
/// planner's guarded trial execution (the kernel dies on SIGILL in a forked
/// child and the plan demotes to scalar). See docs/VECTORIZATION.md.
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
  AVX2,   ///< x86-64 AVX2, 4 doubles per lane group (__m256d).
  NEON,   ///< AArch64 Advanced SIMD, 2 doubles per lane group (float64x2_t).
};

/// Which ISA a kernel was (or should be) emitted for. This is the
/// searchable codegen dimension: the DP evaluator times both variants per
/// node size and records the winner in wisdom.
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

/// Parses a variant token; returns false on an unknown name.
bool parseVariant(const std::string &Name, CodegenVariant &Out);

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
/// for AVX2; "" for NEON, which is AArch64 baseline, and Scalar).
std::string isaCompilerFlags(VectorISA ISA);

/// True when the vector backend can run here (detectISA() != Scalar).
bool vectorBackendAvailable();

} // namespace codegen
} // namespace spl

#endif // SPL_CODEGEN_VECTORISA_H
