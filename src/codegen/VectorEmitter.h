//===- codegen/VectorEmitter.h - Vector C emission alias ---------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The old names of the vector C emitter, now one ISA setting of
/// codegen::emitC. Kept only because perfbench/src/Bench.cpp still includes
/// this header; new code calls emitC with CEmitOptions::ISA set.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_CODEGEN_VECTOREMITTER_H
#define SPL_CODEGEN_VECTOREMITTER_H

#include "codegen/CEmitter.h"

namespace spl {
namespace codegen {

using VectorEmitOptions = CEmitOptions;

inline std::string emitVectorC(const icode::Program &P,
                               const VectorEmitOptions &Opts) {
  return emitC(P, Opts);
}

} // namespace codegen
} // namespace spl

#endif // SPL_CODEGEN_VECTOREMITTER_H
