//===- codegen/VectorISA.cpp - Vector ISA detection -----------------------===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/VectorISA.h"

#include <cstdlib>

namespace spl {
namespace codegen {

const char *isaName(VectorISA ISA) {
  switch (ISA) {
  case VectorISA::Scalar:
    return "scalar";
  case VectorISA::AVX2:
    return "avx2";
  case VectorISA::NEON:
    return "neon";
  }
  return "scalar";
}

bool parseISA(const std::string &Name, VectorISA &Out) {
  if (Name == "scalar") {
    Out = VectorISA::Scalar;
    return true;
  }
  if (Name == "avx2") {
    Out = VectorISA::AVX2;
    return true;
  }
  if (Name == "neon") {
    Out = VectorISA::NEON;
    return true;
  }
  if (Name == "auto") {
    Out = hardwareISA();
    return true;
  }
  return false;
}

const char *variantName(CodegenVariant V) {
  return V == CodegenVariant::Vector ? "vector" : "scalar";
}

VectorISA hardwareISA() {
#if defined(__aarch64__)
  // Advanced SIMD (2-lane double vectors) is AArch64 baseline.
  static const VectorISA Probed = VectorISA::NEON;
#elif defined(__x86_64__) && defined(__GNUC__)
  static const VectorISA Probed = [] {
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx2"))
      return VectorISA::AVX2;
    return VectorISA::Scalar;
  }();
#else
  static const VectorISA Probed = VectorISA::Scalar;
#endif
  return Probed;
}

VectorISA detectISA() {
  static const VectorISA Detected = [] {
    if (const char *Env = std::getenv("SPL_VECTOR_ISA")) {
      VectorISA Forced;
      if (parseISA(Env, Forced))
        return Forced;
      // Unknown override names fall through to the probe rather than
      // silently disabling SIMD.
    }
    return hardwareISA();
  }();
  return Detected;
}

int laneCount(VectorISA ISA) {
  switch (ISA) {
  case VectorISA::AVX2:
    return 4;
  case VectorISA::NEON:
    return 2;
  case VectorISA::Scalar:
    return 1;
  }
  return 1;
}

std::string isaCompilerFlags(VectorISA ISA) {
  switch (ISA) {
  case VectorISA::AVX2:
    return "-mavx2 -mfma";
  case VectorISA::NEON:
  case VectorISA::Scalar:
    return "";
  }
  return "";
}

bool vectorBackendAvailable() { return detectISA() != VectorISA::Scalar; }

} // namespace codegen
} // namespace spl
