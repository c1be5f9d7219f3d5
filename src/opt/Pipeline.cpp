//===- opt/Pipeline.cpp - Optimization pipeline -------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "opt/Pipeline.h"

#include "opt/DCE.h"
#include "xform/Complex2Real.h"
#include "xform/IntrinEval.h"
#include "xform/Scalarize.h"
#include "xform/Unroll.h"

using namespace spl;
using namespace spl::opt;
using namespace spl::icode;

Program opt::runPrefix(const Program &Expanded, const PipelineOptions &Opts,
                       const IntrinsicRegistry &Intrinsics) {
  Program P = Expanded;
  if (Opts.DoUnroll)
    P = xform::unrollLoops(P);
  if (Opts.PartialUnrollFactor > 1)
    P = xform::partialUnroll(P, Opts.PartialUnrollFactor);
  P = xform::evalIntrinsics(P, Intrinsics);
  if (Opts.LowerToReal && P.Type == DataType::Complex)
    P = xform::lowerToReal(P);
  return P;
}

Program opt::runPipeline(const Program &Expanded, const PipelineOptions &Opts,
                         const IntrinsicRegistry &Intrinsics) {
  Program P = runPrefix(Expanded, Opts, Intrinsics);
  if (Opts.Level == OptLevel::None)
    return P;
  P = xform::scalarizeTemps(P);
  if (Opts.Level == OptLevel::Scalarize)
    return P;

  P = valueNumber(P, Opts.VN);
  if (Opts.RunDCE)
    P = eliminateDeadCode(P);
  if (Opts.SparcPeephole) {
    P = peephole(P);
    if (Opts.RunDCE)
      P = eliminateDeadCode(P);
  }
  return P;
}
