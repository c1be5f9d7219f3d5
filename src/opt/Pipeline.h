//===- opt/Pipeline.h - Optimization pipeline -------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Assembles the restructuring and optimization passes into the pipeline the
/// paper describes: unrolling, intrinsic evaluation, type transformation,
/// scalarization, value numbering, dead-code elimination, and the
/// machine-dependent peepholes. The three OptLevels match the versions
/// compared in Figure 2.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_OPT_PIPELINE_H
#define SPL_OPT_PIPELINE_H

#include "icode/ICode.h"
#include "icode/Intrinsics.h"
#include "opt/Peephole.h"
#include "opt/ValueNumbering.h"

namespace spl {
namespace opt {

/// The three code versions of Figure 2.
enum class OptLevel {
  None,      ///< Expansion + unrolling + intrinsic evaluation only.
  Scalarize, ///< + temporary vectors replaced by scalar variables.
  Default,   ///< + constant folding / copy propagation / CSE / DCE.
};

/// Pipeline configuration.
struct PipelineOptions {
  OptLevel Level = OptLevel::Default;

  /// Run the unrolling pass on flagged loops (always wanted in practice;
  /// exposed for tests).
  bool DoUnroll = true;

  /// Additionally unroll the remaining loops partially by this factor
  /// (0/1: off). Loops whose trip counts the factor does not divide are
  /// left alone (paper Section 3.3.1, "fully or partially").
  int PartialUnrollFactor = 0;

  /// Lower complex arithmetic to pairs of reals (#codetype real). Required
  /// for C output; no-op for real-typed programs.
  bool LowerToReal = false;

  /// Apply the SPARC-style peepholes.
  bool SparcPeephole = false;

  /// Pass-level toggles (optimizer-ablation benchmark).
  VNOptions VN;
  bool RunDCE = true;
};

/// The pipeline's first stage: full then partial unrolling, intrinsic
/// evaluation and, with LowerToReal, the complex-to-real type
/// transformation. The expander runs it on the operand of (realify A).
icode::Program runPrefix(const icode::Program &Expanded,
                         const PipelineOptions &Opts,
                         const icode::IntrinsicRegistry &Intrinsics);

/// Runs the configured pipeline over an expanded program.
icode::Program runPipeline(const icode::Program &Expanded,
                           const PipelineOptions &Opts,
                           const icode::IntrinsicRegistry &Intrinsics =
                               icode::IntrinsicRegistry::builtins());

} // namespace opt
} // namespace spl

#endif // SPL_OPT_PIPELINE_H
