//===- bench/BenchUtil.h - Shared benchmark helpers -------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the benchmark harnesses: environment-variable knobs,
/// evaluator construction, and kernel timing that prefers natively compiled
/// code and falls back to the VM (announcing which substrate ran, so the
/// printed tables are self-describing).
///
/// Environment knobs:
///   SPL_MAXLG=<k>        largest FFT size 2^k for fig4/fig5 (default 20)
///   SPL_ACC_MAXLG=<k>    largest size for the accuracy figure (default 18)
///   SPL_SEARCH=<mode>    opcount | vmtime (candidate cost; default opcount)
///   SPL_NO_NATIVE=1      never invoke the system C compiler
///   SPL_NATIVE_FIG2=1    time Figure 2's 135 variants natively (slow)
///
//===----------------------------------------------------------------------===//

#ifndef SPL_BENCH_BENCHUTIL_H
#define SPL_BENCH_BENCHUTIL_H

#include "perf/KernelRunner.h"
#include "perf/Metrics.h"
#include "search/DPSearch.h"
#include "support/Timer.h"
#include "vm/Executor.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace spl {
namespace bench {

inline std::int64_t envInt(const char *Name, std::int64_t Default) {
  const char *V = std::getenv(Name);
  return V ? std::atoll(V) : Default;
}

inline bool envFlag(const char *Name) {
  const char *V = std::getenv(Name);
  return V && V[0] && V[0] != '0';
}

inline bool nativeAllowed() {
  return !envFlag("SPL_NO_NATIVE") && perf::NativeModule::available();
}

/// Times a final program: natively when possible, otherwise in the VM.
struct KernelTime {
  double Seconds = 0;
  bool Native = false;
};

inline KernelTime timeFinal(const icode::Program &Final, int Repeats = 3) {
  KernelTime Out;
  if (nativeAllowed()) {
    perf::KernelError Err;
    if (auto K = perf::CompiledKernel::create(Final, &Err)) {
      Out.Seconds = K->time(Repeats);
      Out.Native = true;
      return Out;
    }
    std::fprintf(stderr, "note: native compile failed (%s); using the VM\n",
                 Err.str().c_str());
  }
  vm::Executor VM(Final);
  std::mt19937 Gen(3);
  std::uniform_real_distribution<double> Dist(-1, 1);
  std::vector<double> X(VM.inputLen()), Y(VM.outputLen(), 0.0);
  for (double &V : X)
    V = Dist(Gen);
  Out.Seconds = timeBestOf([&] { VM.runReal(X.data(), Y.data()); }, Repeats);
  return Out;
}

/// Builds the evaluator selected by SPL_SEARCH.
inline std::unique_ptr<search::Evaluator>
makeEvaluator(Diagnostics &Diags, std::int64_t UnrollThreshold = 64) {
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = UnrollThreshold;
  const char *Mode = std::getenv("SPL_SEARCH");
  if (Mode && std::string(Mode) == "vmtime")
    return std::make_unique<search::VMTimeEvaluator>(Diags, Opts, 2);
  return std::make_unique<search::OpCountEvaluator>(Diags, Opts);
}

/// Machine-readable bench report: one flat JSON object per harness. Fill
/// key/value metrics as the run goes, then write() lands them in
/// BENCH_<name>.json — under $SPL_BENCH_JSON_DIR when set, else the working
/// directory — so CI archives the perf trajectory across commits instead of
/// only asserting gates in-process. Keys are insertion-ordered; setting a
/// key again overwrites it.
class JsonReport {
public:
  explicit JsonReport(std::string BenchName) : Name(std::move(BenchName)) {}

  void num(const std::string &Key, double Value) {
    char Buf[64];
    if (std::isfinite(Value))
      std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
    else
      std::snprintf(Buf, sizeof(Buf), "null"); // JSON has no inf/nan.
    add(Key, Buf);
  }

  void boolean(const std::string &Key, bool Value) {
    add(Key, Value ? "true" : "false");
  }

  void text(const std::string &Key, const std::string &Value) {
    std::string Quoted = "\"";
    for (char C : Value) {
      if (C == '"' || C == '\\')
        Quoted += '\\';
      Quoted += C == '\n' ? ' ' : C;
    }
    Quoted += '"';
    add(Key, Quoted);
  }

  /// Writes BENCH_<name>.json. False (with a stderr note) when the file
  /// cannot be created; harnesses treat that as a warning, not a gate.
  bool write() const {
    const char *Dir = std::getenv("SPL_BENCH_JSON_DIR");
    std::string Path =
        (Dir && Dir[0]) ? std::string(Dir) + "/" : std::string();
    Path += "BENCH_" + Name + ".json";
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "note: cannot write bench report '%s'\n",
                   Path.c_str());
      return false;
    }
    std::fprintf(F, "{\n  \"bench\": \"%s\"", Name.c_str());
    for (const auto &KV : Fields)
      std::fprintf(F, ",\n  \"%s\": %s", KV.first.c_str(),
                   KV.second.c_str());
    std::fprintf(F, "\n}\n");
    std::fclose(F);
    std::printf("report: %s\n", Path.c_str());
    return true;
  }

private:
  void add(const std::string &Key, std::string Rendered) {
    for (auto &KV : Fields)
      if (KV.first == Key) {
        KV.second = std::move(Rendered);
        return;
      }
    Fields.emplace_back(Key, std::move(Rendered));
  }

  std::string Name;
  std::vector<std::pair<std::string, std::string>> Fields;
};

/// Header lines every harness prints, so tables are self-describing.
inline void printPreamble(const char *Experiment, const char *PaperRef) {
  std::printf("== %s ==\n", Experiment);
  std::printf("reproduces: %s\n", PaperRef);
  std::printf("substrate: %s; search cost: %s\n\n",
              nativeAllowed() ? "natively compiled generated C (cc -O2)"
                              : "i-code VM (no C compiler found)",
              std::getenv("SPL_SEARCH") ? std::getenv("SPL_SEARCH")
                                        : "opcount");
}

} // namespace bench
} // namespace spl

#endif // SPL_BENCH_BENCHUTIL_H
