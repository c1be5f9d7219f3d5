//===- driver/Compiler.h - The SPL compiler driver --------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level public API: ties the frontend, template expansion, the
/// restructuring/optimization pipeline and the code generators into one
/// compiler. This is what the splc tool, the examples, the search engine
/// and the benchmark harnesses drive.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_DRIVER_COMPILER_H
#define SPL_DRIVER_COMPILER_H

#include "frontend/Parser.h"
#include "icode/ICode.h"
#include "icode/Intrinsics.h"
#include "opt/Pipeline.h"
#include "support/Diagnostics.h"
#include "templates/Registry.h"

#include <optional>
#include <string>
#include <vector>

namespace spl {
namespace driver {

/// Global compiler options (the command-line knobs of the paper's splc).
struct CompilerOptions {
  /// The -B option: fully unroll loops in sub-formulas whose input is at
  /// most this long (0 disables threshold-driven unrolling; per-formula
  /// #unroll hints still apply).
  std::int64_t UnrollThreshold = 0;

  /// Partially unroll the surviving loops by this factor (0/1: off).
  int PartialUnrollFactor = 0;

  /// Optimization level (Figure 2's three versions).
  opt::OptLevel Level = opt::OptLevel::Default;

  /// Apply the SPARC-style peepholes.
  bool SparcPeephole = false;

  /// Override the program's #language directive ("" keeps it).
  std::string LanguageOverride;

  /// Pass-level toggles forwarded to the pipeline (ablations).
  opt::VNOptions VN;
  bool RunDCE = true;

  /// Render target code text into CompiledUnit::Code. Turn off when only
  /// the i-code is wanted (e.g. cost evaluation of many candidates) —
  /// emitting megabytes of twiddle-table text is wasted work there.
  bool EmitCode = true;
};

/// Everything produced for one top-level formula.
struct CompiledUnit {
  std::string SubName;
  FormulaRef Formula;
  icode::Program Expanded; ///< Raw i-code straight out of the templates.
  icode::Program Final;    ///< After the full pipeline; what Code renders.
  std::string Code;        ///< Target C or Fortran text.
  std::string Language;    ///< "c" or "fortran".
};

/// The compiler.
class Compiler {
public:
  explicit Compiler(Diagnostics &Diags)
      : Diags(Diags), Registry(tpl::TemplateRegistry::withBuiltins()) {}

  /// The template registry; callers may append user templates.
  tpl::TemplateRegistry &templates() { return Registry; }

  /// Compiles a whole SPL source program: every top-level formula becomes a
  /// CompiledUnit; templates in the program are registered first.
  std::optional<std::vector<CompiledUnit>>
  compileSource(const std::string &Source, const CompilerOptions &Opts);

  /// Compiles a single formula under explicit directives.
  std::optional<CompiledUnit> compileFormula(const FormulaRef &F,
                                             const DirectiveState &Dirs,
                                             const CompilerOptions &Opts);

private:
  Diagnostics &Diags;
  tpl::TemplateRegistry Registry;
  icode::IntrinsicRegistry Intrinsics;
};

} // namespace driver
} // namespace spl

#endif // SPL_DRIVER_COMPILER_H
