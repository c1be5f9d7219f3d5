//===- tools/splc.cpp - The SPL compiler command-line driver -------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// splc: compiles SPL programs to C or Fortran, mirroring the paper's
/// command-line compiler (including the -B unrolling option), plus a search
/// mode that runs the Section-4 dynamic programming and emits the winner.
///
///   splc [options] [file.spl]        (no file or "-": read stdin)
///     -o <file>          write generated code here (default: stdout)
///     -B <n>             fully unroll sub-formulas with input size <= n
///     -u <k>             partially unroll remaining loops by factor k
///     -O0 -O1 -O2        optimization level: none / scalar temporaries /
///                        default optimizations (default -O2)
///     -l <lang>          override #language (c or fortran)
///     --sparc            apply the SPARC-style peephole transformations
///     --print-icode      also print the final i-code as a comment stream
///     --stats            print per-subroutine statistics to stderr
///     --profile          print a per-stage time/metric table to stderr
///     --version          print version, build date and compiler
///
///   Search mode (instead of an input file):
///     --best-fft <n>     pick a formula for size n through the runtime
///                        Planner's search stage and emit it; the search
///                        costs at the default level, ignoring -O/-u/--sparc
///     --transform <t>    with --best-fft: which registry transform to
///                        emit (default fft). fft runs the DP search, wht
///                        the flat enumeration, rdft wraps the searched
///                        F_{n/2} as S_n realify(F_{n/2}); dct2/dct3/dct4
///                        expand their recursive rule (docs/WORKLOADS.md)
///     --codegen <m>      auto (default) | scalar | vector: which codegen
///                        variant to emit for the winner. auto and scalar
///                        render plain C (splc builds no kernels to race);
///                        vector renders the SIMD backend's C
///                        (docs/VECTORIZATION.md)
///     --search-eval <e>  cost model: opcount (default) | vmtime | native
///                        (native without a C compiler warns and uses
///                        opcount)
///     --search-threads <t>  candidate-evaluation worker threads
///     --search-leaf <n>  largest straight-line sub-transform (default 16)
///     --deadline-ms <n>  budget for the DP search (0 = unbounded); an
///                        expired budget yields the best formula found so
///                        far, or exit code 6 if none was completed. A
///                        truncated search is never recorded as wisdom
///     --wisdom <file>    persistent plan cache location
///                        (default: $SPL_WISDOM or ~/.spl_wisdom)
///     --no-wisdom        neither read nor write the plan cache
///     --kernel-cache <dir>  persistent compiled-kernel cache for the
///                        nativetime cost model ($SPL_KERNEL_CACHE,
///                        docs/KERNEL_CACHE.md)
///     --no-kernel-cache  never read or write the kernel cache
///
/// Exit codes (tools/ExitCodes.h): 0 ok, 2 usage, 3 parse error,
/// 4 compile/search error, 5 cannot write output, 6 deadline exceeded.
///
//===----------------------------------------------------------------------===//

#include "ExitCodes.h"
#include "Version.h"

#include "codegen/CEmitter.h"
#include "codegen/VectorISA.h"
#include "driver/Compiler.h"
#include "frontend/Parser.h"
#include "runtime/Planner.h"
#include "support/Deadline.h"
#include "support/Diagnostics.h"
#include "telemetry/Metrics.h"
#include "transforms/Registry.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace spl;

namespace {

void printUsage() {
  std::fprintf(stderr,
               "usage: splc [-o out] [-B n] [-u k] [-O0|-O1|-O2] "
               "[-l c|fortran] [--sparc] [--print-icode] [--stats] "
               "[--profile] [file.spl]\n"
               "       splc --best-fft n [--transform t] "
               "[--codegen auto|scalar|vector] "
               "[--search-eval opcount|vmtime|native] "
               "[--search-threads t] [--search-leaf n] [--deadline-ms n] "
               "[--wisdom file] [--no-wisdom] [--kernel-cache dir] "
               "[--no-kernel-cache] [common options]\n"
               "       splc --version    print version, build date and "
               "compiler\n");
}

/// Re-renders \p Unit's i-code as SIMD C for the host ISA, with inline
/// tables: this is display/output code, not a runtime kernel.
void renderVector(driver::CompiledUnit &Unit, const std::string &Comment) {
  codegen::CEmitOptions CO;
  CO.ISA = codegen::detectISA();
  CO.HeaderComment = Comment;
  Unit.Code = codegen::emitC(Unit.Final, CO);
}

} // namespace

static int run(int Argc, char **Argv) {
  driver::CompilerOptions Opts;
  runtime::PlannerOptions POpts; // The --best-fft search's knobs.
  std::string InputPath;
  std::string OutputPath;
  bool PrintICode = false;
  bool Stats = false;
  bool Profile = false;
  std::int64_t BestFFT = 0;
  std::int64_t SearchLeaf = 16;
  std::int64_t DeadlineMs = 0;
  std::string CodegenArg = "auto";
  std::string Transform = "fft";

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "-o" && I + 1 < Argc) {
      OutputPath = Argv[++I];
    } else if (Arg == "-B" && I + 1 < Argc) {
      Opts.UnrollThreshold = std::atoll(Argv[++I]);
    } else if (Arg == "-u" && I + 1 < Argc) {
      Opts.PartialUnrollFactor = std::atoi(Argv[++I]);
    } else if (Arg == "-O0") {
      Opts.Level = opt::OptLevel::None;
    } else if (Arg == "-O1") {
      Opts.Level = opt::OptLevel::Scalarize;
    } else if (Arg == "-O2") {
      Opts.Level = opt::OptLevel::Default;
    } else if (Arg == "-l" && I + 1 < Argc) {
      Opts.LanguageOverride = Argv[++I];
      if (Opts.LanguageOverride != "c" &&
          Opts.LanguageOverride != "fortran") {
        std::fprintf(stderr, "splc: error: unknown language '%s'\n",
                     Opts.LanguageOverride.c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--sparc") {
      Opts.SparcPeephole = true;
    } else if (Arg == "--print-icode") {
      PrintICode = true;
    } else if (Arg == "--stats") {
      Stats = true;
    } else if (Arg == "--profile") {
      Profile = true;
      telemetry::setMetricsEnabled(true);
    } else if (Arg == "--version") {
      std::printf("%s\n", tools::versionString("splc").c_str());
      return tools::ExitOK;
    } else if (Arg == "--best-fft" && I + 1 < Argc) {
      BestFFT = std::atoll(Argv[++I]);
      if (BestFFT < 2) {
        std::fprintf(stderr, "splc: error: --best-fft size must be >= 2\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--transform" && I + 1 < Argc) {
      Transform = Argv[++I];
      // A bad transform name is a usage error (exit 2): the registry knows
      // the full menu, so say it.
      if (!transforms::lookup(Transform)) {
        std::fprintf(stderr,
                     "splc: error: unknown transform '%s' (supported: "
                     "%s)\n",
                     Transform.c_str(),
                     transforms::supportedNames().c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--codegen" && I + 1 < Argc) {
      CodegenArg = Argv[++I];
      if (CodegenArg != "auto" && CodegenArg != "scalar" &&
          CodegenArg != "vector") {
        std::fprintf(stderr, "splc: error: unknown codegen mode '%s'\n",
                     CodegenArg.c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--search-eval" && I + 1 < Argc) {
      POpts.Evaluator = Argv[++I];
      if (POpts.Evaluator != "opcount" && POpts.Evaluator != "vmtime" &&
          POpts.Evaluator != "native") {
        std::fprintf(stderr, "splc: error: unknown cost model '%s'\n",
                     POpts.Evaluator.c_str());
        return tools::ExitUsage;
      }
    } else if (Arg == "--search-threads" && I + 1 < Argc) {
      POpts.SearchThreads = std::atoi(Argv[++I]);
      if (POpts.SearchThreads < 1) {
        std::fprintf(stderr, "splc: error: --search-threads must be >= 1\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--search-leaf" && I + 1 < Argc) {
      SearchLeaf = std::atoll(Argv[++I]);
      if (SearchLeaf < 2) {
        std::fprintf(stderr, "splc: error: --search-leaf must be >= 2\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--deadline-ms" && I + 1 < Argc) {
      DeadlineMs = std::atoll(Argv[++I]);
      if (DeadlineMs < 0) {
        std::fprintf(stderr, "splc: error: --deadline-ms must be >= 0\n");
        return tools::ExitUsage;
      }
    } else if (Arg == "--wisdom" && I + 1 < Argc) {
      POpts.WisdomPath = Argv[++I];
    } else if (Arg == "--no-wisdom") {
      POpts.UseWisdom = false;
    } else if (Arg == "--kernel-cache" && I + 1 < Argc) {
      POpts.KernelCacheDir = Argv[++I];
    } else if (Arg == "--no-kernel-cache") {
      POpts.DisableKernelCache = true;
    } else if (Arg == "-h" || Arg == "--help") {
      printUsage();
      return 0;
    } else if (Arg == "-" || Arg[0] != '-') {
      if (!InputPath.empty()) {
        std::fprintf(stderr, "splc: error: multiple input files\n");
        return tools::ExitUsage;
      }
      InputPath = Arg;
    } else if (Arg == "-o" || Arg == "-B" || Arg == "-u" || Arg == "-l" ||
               Arg == "--best-fft" || Arg == "--transform" ||
               Arg == "--codegen" ||
               Arg == "--search-eval" || Arg == "--search-threads" ||
               Arg == "--search-leaf" || Arg == "--deadline-ms" ||
               Arg == "--wisdom") {
      // A value-taking flag in last position: every I+1 check above failed.
      std::fprintf(stderr, "splc: error: option '%s' needs a value\n",
                   Arg.c_str());
      return tools::ExitUsage;
    } else {
      std::fprintf(stderr, "splc: error: unknown option '%s'\n", Arg.c_str());
      printUsage();
      return tools::ExitUsage;
    }
  }

  Diagnostics Diags;
  driver::Compiler Compiler(Diags);
  std::optional<std::vector<driver::CompiledUnit>> Units;

  if (BestFFT) {
    if (!InputPath.empty()) {
      std::fprintf(stderr,
                   "splc: error: --best-fft does not take an input file\n");
      return tools::ExitUsage;
    }
    runtime::PlanSpec Spec;
    Spec.Transform = Transform;
    Spec.Size = BestFFT;
    Spec.UnrollThreshold = Opts.UnrollThreshold;
    Spec.MaxLeaf = SearchLeaf;
    if (!runtime::Planner::validateSpec(Spec, Diags)) {
      std::fputs(Diags.dump().c_str(), stderr);
      return tools::ExitUsage;
    }
    const transforms::TransformInfo &TI = *transforms::lookup(Transform);
    const bool Vector = CodegenArg == "vector";
    DirectiveState Dirs;
    Dirs.SubName = Transform + std::to_string(BestFFT);
    Dirs.Datatype = TI.NaturalDatatype;
    Dirs.Language =
        Opts.LanguageOverride.empty() ? "c" : Opts.LanguageOverride;
    if (Vector && Dirs.Language != "c") {
      std::fprintf(stderr,
                   "splc: error: --codegen vector emits C only (got -l %s)\n",
                   Dirs.Language.c_str());
      return tools::ExitUsage;
    }

    // Rule transforms expand their registry rule, the known-good
    // factorization; fft, wht and rdft take the Planner's choice, costed at
    // the default optimization level whatever -O/-u/--sparc say, so the
    // wisdom recorded here is the wisdom splrun and spld would record.
    FormulaRef F;
    std::optional<runtime::Choice> Won;
    runtime::Planner Planner(Diags, POpts);
    if (TI.PlanFamily == transforms::Family::Recursive) {
      F = TI.Rule(BestFFT);
    } else {
      // The whole --deadline-ms budget goes to the search, which hands back
      // its best-so-far formula on expiry and never records a truncated
      // table as wisdom.
      runtime::PlanError Err;
      Won = Planner.choose(Spec, support::Deadline::afterMs(DeadlineMs), &Err);
      if (!Won) {
        std::fputs(Diags.dump().c_str(), stderr);
        if (Err == runtime::PlanError::DeadlineExceeded) {
          std::fprintf(stderr,
                       "splc: error: the --deadline-ms budget expired before "
                       "any formula was evaluated\n");
          return tools::ExitDeadline;
        }
        return tools::ExitCompile;
      }
      Planner.saveWisdom();
      F = Won->Formula;
    }

    auto Unit = Compiler.compileFormula(F, Dirs, Opts);
    if (!Unit) {
      std::fputs(Diags.dump().c_str(), stderr);
      return tools::ExitCompile;
    }
    const std::string How = (Won ? "winner " : "rule ") + F->print();
    if (Vector)
      renderVector(*Unit, How);
    if (Stats) {
      const char *Codegen = Vector ? "vector" : "scalar";
      if (Won)
        std::fprintf(stderr,
                     "%s: %s (cost %.6g, %llu evaluations, codegen %s)\n",
                     Dirs.SubName.c_str(), How.c_str(), Won->Cost,
                     static_cast<unsigned long long>(Won->Evaluations),
                     Codegen);
      else
        std::fprintf(stderr, "%s: %s (codegen %s)\n", Dirs.SubName.c_str(),
                     How.c_str(), Codegen);
      if (Won && POpts.UseWisdom)
        std::fprintf(stderr, "%s (%s)\n", Planner.wisdom().summary().c_str(),
                     Planner.wisdomPath().c_str());
    }
    Units.emplace();
    Units->push_back(std::move(*Unit));
  } else {
    std::string Source;
    if (InputPath.empty() || InputPath == "-") {
      std::ostringstream SS;
      SS << std::cin.rdbuf();
      Source = SS.str();
    } else {
      // Reading a directory through an ifstream "succeeds" with an empty
      // stream on Linux, which would compile to silence; reject it up front.
      std::error_code EC;
      if (std::filesystem::is_directory(InputPath, EC)) {
        std::fprintf(stderr, "splc: error: '%s' is a directory\n",
                     InputPath.c_str());
        return tools::ExitUsage;
      }
      errno = 0;
      std::ifstream In(InputPath, std::ios::binary);
      if (!In) {
        std::fprintf(stderr, "splc: error: cannot open '%s': %s\n",
                     InputPath.c_str(),
                     errno ? std::strerror(errno) : "unknown error");
        return tools::ExitUsage;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      if (In.bad()) {
        std::fprintf(stderr, "splc: error: cannot read '%s'\n",
                     InputPath.c_str());
        return tools::ExitUsage;
      }
      Source = SS.str();
    }
    // Parse first so a syntax/validation error exits with the parse
    // code, distinct from a later compilation failure.
    {
      Diagnostics ParseDiags;
      Parser P(Source, ParseDiags);
      auto Prog = P.parseProgram();
      if (!Prog || ParseDiags.hasErrors()) {
        std::fputs(ParseDiags.dump().c_str(), stderr);
        return tools::ExitParse;
      }
    }
    Units = Compiler.compileSource(Source, Opts);
  }

  std::fputs(Diags.dump().c_str(), stderr);
  if (!Units)
    return tools::ExitCompile;

  std::ostringstream Out;
  for (const auto &Unit : *Units) {
    if (PrintICode) {
      std::istringstream IC(Unit.Final.print());
      std::string Line;
      bool IsC = Unit.Language != "fortran";
      while (std::getline(IC, Line))
        Out << (IsC ? "/* " : "c ") << Line << (IsC ? " */" : "") << "\n";
    }
    Out << Unit.Code << "\n";
    if (Stats) {
      std::fprintf(stderr,
                   "%s: in=%lld out=%lld instrs=%zu flops=%llu temps=%zu "
                   "tables=%zu\n",
                   Unit.SubName.c_str(),
                   static_cast<long long>(Unit.Final.InSize),
                   static_cast<long long>(Unit.Final.OutSize),
                   Unit.Final.staticSize(),
                   static_cast<unsigned long long>(
                       Unit.Final.dynamicOpCount()),
                   Unit.Final.TempVecSizes.size(), Unit.Final.Tables.size());
    }
  }

  if (OutputPath.empty()) {
    std::fputs(Out.str().c_str(), stdout);
  } else {
    std::ofstream OutFile(OutputPath);
    if (!OutFile) {
      std::fprintf(stderr, "splc: error: cannot write '%s'\n",
                   OutputPath.c_str());
      return tools::ExitExec;
    }
    OutFile << Out.str();
  }
  if (Profile)
    std::fprintf(stderr, "profile:\n%s", telemetry::profileTable().c_str());
  return tools::ExitOK;
}

int main(int Argc, char **Argv) {
  return tools::runCompileStage("splc", [&] { return run(Argc, Argv); });
}
