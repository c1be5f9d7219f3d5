//===- driver/Compiler.cpp - The SPL compiler driver -------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Compiler.h"

#include "codegen/CEmitter.h"
#include "codegen/FortranEmitter.h"
#include "lower/Expander.h"
#include "telemetry/Trace.h"

using namespace spl;
using namespace spl::driver;

std::optional<CompiledUnit>
Compiler::compileFormula(const FormulaRef &F, const DirectiveState &Dirs,
                         const CompilerOptions &Opts) {
  if (!F) {
    // A failed builder call upstream already produced the real diagnostic.
    Diags.error(SourceLoc(), "cannot compile a null formula");
    return std::nullopt;
  }
  CompiledUnit Unit;
  Unit.Formula = F;
  Unit.SubName = Dirs.SubName.empty() ? "sub" : Dirs.SubName;
  Unit.Language =
      Opts.LanguageOverride.empty() ? Dirs.Language : Opts.LanguageOverride;

  lower::Expander Exp(Registry, Diags, Intrinsics);
  lower::ExpandOptions EOpts;
  EOpts.SubName = Unit.SubName;
  EOpts.Datatype = Dirs.Datatype == "real" ? icode::DataType::Real
                                           : icode::DataType::Complex;
  EOpts.UnrollThreshold = Opts.UnrollThreshold;
  std::optional<icode::Program> Expanded;
  {
    telemetry::StageTimer T(telemetry::CompileExpandNs);
    Expanded = Exp.expand(F, EOpts);
  }
  if (!Expanded)
    return std::nullopt;
  Unit.Expanded = *Expanded;

  opt::PipelineOptions POpts;
  POpts.Level = Opts.Level;
  POpts.PartialUnrollFactor = Opts.PartialUnrollFactor;
  POpts.SparcPeephole = Opts.SparcPeephole;
  POpts.VN = Opts.VN;
  POpts.RunDCE = Opts.RunDCE;
  // C has no complex type; Fortran keeps complex only under
  // "#codetype complex".
  bool WantComplexCode = Unit.Language == "fortran" &&
                         Dirs.CodeType == "complex";
  POpts.LowerToReal = EOpts.Datatype == icode::DataType::Complex &&
                      !WantComplexCode;
  {
    telemetry::StageTimer T(telemetry::CompileOptimizeNs);
    Unit.Final = opt::runPipeline(*Expanded, POpts, Intrinsics);
  }

  // #datatype real promises real arithmetic; intrinsics evaluated during
  // the pipeline (e.g. twiddle tables) may disprove it only now.
  if (EOpts.Datatype == icode::DataType::Real) {
    bool HasComplex = false;
    for (const auto &T : Unit.Final.Tables)
      for (Cplx V : T)
        HasComplex |= V.imag() != 0;
    for (const auto &I : Unit.Final.Body) {
      if (I.A.is(icode::OpndKind::FltConst))
        HasComplex |= I.A.FConst.imag() != 0;
      if (I.B.is(icode::OpndKind::FltConst))
        HasComplex |= I.B.FConst.imag() != 0;
    }
    if (HasComplex) {
      Diags.error(F->loc(),
                  "formula " + F->print() +
                      " produces complex constants under #datatype real");
      return std::nullopt;
    }
  }

  if (Opts.EmitCode) {
    telemetry::StageTimer T(telemetry::CompileCodegenNs);
    if (Unit.Language == "fortran") {
      codegen::FortranEmitOptions FOpts;
      FOpts.AutomaticTemps = Opts.SparcPeephole;
      Unit.Code = codegen::emitFortran(Unit.Final, FOpts);
    } else {
      codegen::CEmitOptions COpts;
      COpts.HeaderComment = "formula: " + F->print();
      Unit.Code = codegen::emitC(Unit.Final, COpts);
    }
  }
  return Unit;
}

std::optional<std::vector<CompiledUnit>>
Compiler::compileSource(const std::string &Source,
                        const CompilerOptions &Opts) {
  std::optional<SplProgram> Prog;
  {
    telemetry::StageTimer T(telemetry::CompileParseNs);
    Parser P(Source, Diags);
    Prog = P.parseProgram();
  }
  if (!Prog)
    return std::nullopt;
  Registry.addAll(std::move(Prog->Templates));

  std::vector<CompiledUnit> Units;
  for (size_t I = 0; I != Prog->Items.size(); ++I) {
    DirectiveState Dirs = Prog->Items[I].Dirs;
    if (Dirs.SubName.empty())
      Dirs.SubName = "sub" + std::to_string(I);
    auto Unit = compileFormula(Prog->Items[I].Formula, Dirs, Opts);
    if (!Unit)
      return std::nullopt;
    Units.push_back(std::move(*Unit));
  }
  return Units;
}
