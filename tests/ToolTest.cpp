//===- tests/ToolTest.cpp - splc command-line tool tests --------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests that drive the splc binary the way a user would:
/// write an .spl file, invoke the tool, inspect its output and exit code.
/// The binary location comes from the SPLC_PATH compile definition set by
/// the test CMakeLists. Also asserts the documented exit codes
/// (tools/ExitCodes.h) that distinguish usage, parse, compile and
/// execution failures.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <vector>

namespace {

/// True when the ambient environment injects faults (the CI fault-matrix
/// job): healthy-path assertions about native compiles must skip then.
bool faultsArmed() {
  const char *Env = std::getenv("SPL_FAULT");
  return Env && *Env;
}

std::string splcPath() {
#ifdef SPLC_PATH
  return SPLC_PATH;
#else
  return "splc";
#endif
}

std::string splrunPath() {
#ifdef SPLRUN_PATH
  return SPLRUN_PATH;
#else
  return "splrun";
#endif
}

std::string spldPath() {
#ifdef SPLD_PATH
  return SPLD_PATH;
#else
  return "spld";
#endif
}

struct RunResult {
  int ExitCode;
  std::string Output;
};

/// Decodes the raw std::system() wait status into the child's exit code,
/// or -1 if the tool died on a signal.
int exitStatus(const RunResult &R) {
  return WIFEXITED(R.ExitCode) ? WEXITSTATUS(R.ExitCode) : -1;
}

/// Runs a prepared command line, capturing stdout+stderr.
RunResult runCommand(const std::string &Cmd) {
  std::string Out =
      "/tmp/spl-tool-test-" + std::to_string(getpid()) + ".out";
  int RC = std::system((Cmd + " > " + Out + " 2>&1").c_str());
  std::ifstream F(Out);
  std::ostringstream SS;
  SS << F.rdbuf();
  std::remove(Out.c_str());
  return {RC, SS.str()};
}

/// Runs splc with \p Args; stdin/stdout via files.
RunResult runSplc(const std::string &Args, const std::string &Source) {
  std::string In = "/tmp/splc-test-" + std::to_string(getpid()) + ".spl";
  {
    std::ofstream F(In);
    F << Source;
  }
  auto R = runCommand(splcPath() + " " + Args + " " + In);
  std::remove(In.c_str());
  return R;
}

const char *Fft16Source = R"(
(define F4 (compose (tensor (F 2) (I 2)) (T 4 2)
                    (tensor (I 2) (F 2)) (L 4 2)))
#subname fft16
(compose (tensor F4 (I 4)) (T 16 4) (tensor (I 4) F4) (L 16 4))
)";

TEST(Splc, EmitsCByDefault) {
  auto R = runSplc("-B 32", Fft16Source);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("void fft16(double *"), std::string::npos)
      << R.Output.substr(0, 400);
}

TEST(Splc, EmitsFortranOnRequest) {
  auto R = runSplc("-B 8 -l fortran", Fft16Source);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("subroutine fft16 (y,x)"), std::string::npos);
  EXPECT_NE(R.Output.find("implicit real*8 (f)"), std::string::npos);
}

TEST(Splc, OptLevelsChangeOutputSize) {
  auto R0 = runSplc("-B 64 -O0", Fft16Source);
  auto R2 = runSplc("-B 64 -O2", Fft16Source);
  ASSERT_EQ(R0.ExitCode, 0);
  ASSERT_EQ(R2.ExitCode, 0);
  EXPECT_GT(R0.Output.size(), R2.Output.size());
}

TEST(Splc, StatsGoToStderrButStillSucceeds) {
  auto R = runSplc("--stats -B 16", Fft16Source);
  EXPECT_EQ(R.ExitCode, 0);
  // Stats were redirected into the same capture; the line mentions flops.
  EXPECT_NE(R.Output.find("flops="), std::string::npos);
}

TEST(Splc, PrintICodeAddsComments) {
  auto R = runSplc("--print-icode -B 4", "(F 4)");
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("/* ; subroutine"), std::string::npos) << R.Output;
}

TEST(Splc, SyntaxErrorsExitNonzeroWithDiagnostics) {
  auto R = runSplc("", "(compose (F 2)");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("error:"), std::string::npos) << R.Output;
}

TEST(Splc, SemanticErrorsAreLocated) {
  auto R = runSplc("", "(compose (F 2) (F 3))");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("size mismatch"), std::string::npos) << R.Output;
}

TEST(Splc, UnknownOptionFails) {
  auto R = runSplc("--frobnicate", "(F 2)");
  EXPECT_EQ(exitStatus(R), 2) << R.Output; // Documented usage exit code.
  // Exactly one diagnostic line names the flag.
  EXPECT_NE(R.Output.find("splc: error: unknown option '--frobnicate'\n"),
            std::string::npos)
      << R.Output;
}

TEST(Splc, ValueFlagWithoutValueSaysSo) {
  // The input file must NOT follow the flag (it would be eaten as the
  // value), so drive splc directly instead of via runSplc.
  for (const char *Flag : {"-o", "--wisdom", "--search-eval"}) {
    auto R = runCommand(splcPath() + " " + Flag);
    EXPECT_EQ(exitStatus(R), 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find(std::string("splc: error: option '") + Flag +
                            "' needs a value"),
              std::string::npos)
        << Flag << " fell through to: " << R.Output;
  }
}

TEST(Splrun, UnknownOptionFails) {
  auto R = runCommand(splrunPath() + " --frobnicate");
  EXPECT_EQ(exitStatus(R), 2) << R.Output;
  EXPECT_NE(R.Output.find("splrun: error: unknown option '--frobnicate'\n"),
            std::string::npos)
      << R.Output;
}

TEST(Splrun, ValueFlagWithoutValueSaysSo) {
  for (const char *Flag : {"--size", "--connect", "--wisdom"}) {
    auto R = runCommand(splrunPath() + " " + Flag);
    EXPECT_EQ(exitStatus(R), 2) << Flag << ": " << R.Output;
    EXPECT_NE(R.Output.find(std::string("splrun: error: ") + Flag +
                            " needs a value"),
              std::string::npos)
        << Flag << " fell through to: " << R.Output;
  }
}

TEST(Splrun, CodegenFlagDiagnostics) {
  auto Missing = runCommand(splrunPath() + " --codegen");
  EXPECT_EQ(exitStatus(Missing), 2) << Missing.Output;
  EXPECT_NE(Missing.Output.find("splrun: error: --codegen needs a value"),
            std::string::npos)
      << Missing.Output;

  auto Bad = runCommand(splrunPath() + " --size 8 --codegen turbo");
  EXPECT_EQ(exitStatus(Bad), 2) << Bad.Output;
  EXPECT_NE(Bad.Output.find("splrun: error: unknown codegen mode 'turbo'"),
            std::string::npos)
      << Bad.Output;
}

TEST(Splc, CodegenFlagDiagnostics) {
  auto Missing = runCommand(splcPath() + " --codegen");
  EXPECT_EQ(exitStatus(Missing), 2) << Missing.Output;
  EXPECT_NE(
      Missing.Output.find("splc: error: option '--codegen' needs a value"),
      std::string::npos)
      << Missing.Output;

  auto Bad = runCommand(splcPath() + " --best-fft 8 --codegen turbo");
  EXPECT_EQ(exitStatus(Bad), 2) << Bad.Output;
  EXPECT_NE(Bad.Output.find("splc: error: unknown codegen mode 'turbo'"),
            std::string::npos)
      << Bad.Output;
}

TEST(Spld, CodegenFlagDiagnostics) {
  auto Missing = runCommand(spldPath() + " --codegen");
  EXPECT_EQ(exitStatus(Missing), 2) << Missing.Output;
  EXPECT_NE(Missing.Output.find("spld: error: --codegen needs a value"),
            std::string::npos)
      << Missing.Output;

  auto Bad = runCommand(spldPath() + " --socket /tmp/never-bound.sock "
                                     "--codegen turbo");
  EXPECT_EQ(exitStatus(Bad), 2) << Bad.Output;
  EXPECT_NE(Bad.Output.find("spld: error: unknown codegen mode 'turbo'"),
            std::string::npos)
      << Bad.Output;
}

TEST(Spld, NegativeWorkersIsAUsageError) {
  // 0 means one request worker per core; below 0 used to mean the same
  // silently, and is now rejected before the socket is bound.
  auto R = runCommand(spldPath() + " --socket /tmp/never-bound.sock "
                                   "--workers -3");
  EXPECT_EQ(exitStatus(R), 2) << R.Output;
  EXPECT_NE(R.Output.find("spld: error: --workers must be >= 0"),
            std::string::npos)
      << R.Output;
}

TEST(Splrun, VectorCodegenPlansAndVerifies) {
  if (faultsArmed())
    GTEST_SKIP() << "SPL_FAULT armed";
  auto R = runCommand(splrunPath() +
                      " --transform fft --size 16 --batch 6 --threads 2 "
                      "--codegen vector --verify --no-wisdom "
                      "--no-kernel-cache");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_EQ(R.Output.find("FAIL"), std::string::npos) << R.Output;
  // On a SIMD host the plan reports its lanes and the extra vector-vs-
  // scalar verify pass runs; on a scalar-only host the forced-vector spec
  // demotes cleanly and the run still verifies.
  if (R.Output.find("(vector,") != std::string::npos) {
    EXPECT_NE(R.Output.find("verify: vector vs scalar native"),
              std::string::npos)
        << R.Output;
    EXPECT_NE(R.Output.find("bit-identical OK"), std::string::npos)
        << R.Output;
  } else {
    EXPECT_NE(R.Output.find("fell back"), std::string::npos) << R.Output;
  }
}

TEST(Splrun, ScalarISAOverrideDemotesForcedVector) {
  if (faultsArmed())
    GTEST_SKIP() << "SPL_FAULT armed";
  // SPL_VECTOR_ISA=scalar is the CI knob proving vector requests degrade
  // on hosts without SIMD: the plan falls back to scalar native and every
  // verification still passes.
  auto R = runCommand("SPL_VECTOR_ISA=scalar " + splrunPath() +
                      " --transform fft --size 16 --batch 4 "
                      "--codegen vector --verify --no-wisdom "
                      "--no-kernel-cache");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_EQ(R.Output.find("(vector,"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("no SIMD ISA"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("FAIL"), std::string::npos) << R.Output;
}

TEST(Splc, PartialUnrollFactorAccepted) {
  auto R = runSplc("-u 2", "(tensor (I 8) (F 2))");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("void sub0"), std::string::npos);
}

TEST(Splc, MissingInputFileFailsWithDiagnostic) {
  auto R = runCommand(splcPath() + " /tmp/no-such-spl-input-" +
                      std::to_string(getpid()) + ".spl");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("error: cannot open"), std::string::npos)
      << R.Output;
  // One-line diagnostic, not a stack trace.
  EXPECT_LT(R.Output.size(), 200u) << R.Output;
}

TEST(Splc, DirectoryInputFailsWithDiagnostic) {
  auto R = runCommand(splcPath() + " /tmp");
  EXPECT_NE(R.ExitCode, 0);
  EXPECT_NE(R.Output.find("is a directory"), std::string::npos) << R.Output;
}

TEST(Splrun, PlansAndVerifiesSmallFft) {
  auto R = runCommand(splrunPath() + " --transform fft --size 16 --batch 8 "
                                     "--threads 2 --verify --no-wisdom");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("plan: fft 16"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("bit-identical OK"), std::string::npos) << R.Output;
}

TEST(Splrun, VmBackendWorksWithoutCompiler) {
  auto R = runCommand(splrunPath() + " --transform wht --size 8 --batch 4 "
                                     "--backend vm --verify --no-wisdom");
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("backend vm"), std::string::npos) << R.Output;
}

TEST(Splrun, RejectsBadArguments) {
  auto NoSize = runCommand(splrunPath() + " --transform fft");
  EXPECT_EQ(exitStatus(NoSize), 2) << NoSize.Output;
  EXPECT_NE(NoSize.Output.find("--size"), std::string::npos);

  auto BadBackend =
      runCommand(splrunPath() + " --size 8 --backend turbo");
  EXPECT_EQ(exitStatus(BadBackend), 2) << BadBackend.Output;
  EXPECT_NE(BadBackend.Output.find("unknown backend"), std::string::npos);

  // A well-formed command line whose spec is rejected exits with the
  // distinct parse code, not the usage code.
  auto NonPow2 = runCommand(splrunPath() + " --size 20 --no-wisdom");
  EXPECT_EQ(exitStatus(NonPow2), 3) << NonPow2.Output;
  EXPECT_NE(NonPow2.Output.find("error"), std::string::npos)
      << NonPow2.Output;
}

TEST(Splc, ExitCodesDistinguishFailureStages) {
  // Usage error: unknown flag.
  EXPECT_EQ(exitStatus(runSplc("--frobnicate", "(F 2)")), 2);
  // Parse error: truncated source.
  EXPECT_EQ(exitStatus(runSplc("", "(compose (F 2)")), 3);
  // Parse error: semantic rejection raised while building the formula.
  EXPECT_EQ(exitStatus(runSplc("", "(compose (F 2) (F 3))")), 3);
  // Compile error: parses cleanly, then the pipeline rejects complex
  // constants under #datatype real.
  EXPECT_EQ(exitStatus(runSplc("", "#datatype real\n(T 4 2)")), 4);
  // Success.
  EXPECT_EQ(exitStatus(runSplc("", "(F 2)")), 0);
}

TEST(Splc, IntegerFaultsAreDiagnosticsNotSignals) {
  // An overflow or a zero divisor in an integer expression used to wrap
  // silently or kill splc with SIGFPE (exit 136 from the shell).
  const char *Loop = "(template (PQ n_) (do $i0 = 0, n_-1\n $out($i0) = ";
  const struct {
    std::string Source;
    int Exit;
    const char *Message;
  } Cases[] = {
      {"(I (4611686018427387904 * 4))", 3,
       "1:25: integer overflow in constant expression"},
      {Loop + std::string("W(n_ 8 / $i0) * $in($i0)\n end))\n(PQ 8)"), 4,
       "the divisor can be zero within the loop bounds"},
      {Loop + std::string("W(n_ 4611686018427387904 * 4 + $i0) * "
                          "$in($i0)\n end))\n(PQ 8)"),
       4, "integer overflow in integer expression"},
      {"(template (PQ n_) [n_ * 4611686018427387904 == 0] (do $i0 = 0, "
       "n_-1\n $out($i0) = $in($i0)\n end))\n(PQ 4)",
       4, "no template matches user-defined matrix (PQ 4)"},
      // An intrinsic of order 0 (SIGFPE before).
      {"(template (PQ n_) [n_ >= 1] (do $i0 = 0, n_-1 $out($i0) = "
       "W(n_-1 $i0) * $in($i0) end))\n(PQ 1)",
       4, "1:63: the order of intrinsic 'W' must be positive"},
      // A table over more index combinations than int64 counts
      // (std::length_error, SIGABRT before).
      {"(template (PQ n_) (do $i0 = -4611686018427387904, "
       "4611686018427387904 $out(0) = W(8 $i0) * $in(0) end))\n(PQ 1)",
       4, "the table of intrinsic 'W' over its loops would exceed 2^63"},
      // Orders that break the intrinsic's own rule (a wrong matrix before,
      // in builds without assertions).
      {Loop + std::string("TW(6 4 $i0) * $in($i0)\n end))\n(PQ 8)"), 4,
       "intrinsic 'TW' needs n to divide mn"},
      {Loop + std::string("WHTE(6 $i0 $i0) * $in($i0)\n end))\n(PQ 8)"), 4,
       "intrinsic 'WHTE' needs n to be a power of two"},
      {Loop + std::string("TW(8 $i0+1 $i0) * $in($i0)\n end))\n(PQ 8)"), 4,
       "intrinsic 'TW' needs n to divide mn, which the loop bounds do not "
       "prove"},
  };
  for (const auto &C : Cases) {
    auto R = runSplc("", C.Source);
    EXPECT_EQ(exitStatus(R), C.Exit) << C.Source << "\n" << R.Output;
    EXPECT_NE(R.Output.find(C.Message), std::string::npos) << R.Output;
  }

  // Orders that meet the rule still compile, loop-dependent ones too
  // when their range proves it ($i0+1 is 1 or 2, and both divide 8).
  for (const char *Valid :
       {"TW(8 4 $i0) * $in($i0)\n end))\n(PQ 8)",
        "WHTE(8 $i0 $i0) * $in($i0)\n end))\n(PQ 8)",
        "TW(8 $i0+1 $i0) * $in($i0)\n end))\n(PQ 2)"}) {
    auto R = runSplc("", Loop + std::string(Valid));
    EXPECT_EQ(exitStatus(R), 0) << Valid << "\n" << R.Output;
  }

  // A loop empty by more than one iteration needs no table for an
  // intrinsic over its index (std::length_error, SIGABRT before).
  for (const char *Unroll : {"-B 0", "-B 16"}) {
    auto R = runSplc(Unroll, "(template (PQ n_) (do $i0 = 0, -5 $out($i0) = "
                             "W(8 $i0) * $in($i0) end))\n(PQ 1)");
    EXPECT_EQ(exitStatus(R), 0) << Unroll << "\n" << R.Output;
  }
}

TEST(Splc, FormulasTooLargeToExpandAreDiagnostics) {
  // Under an address-space limit, a formula too large to expand ends in a
  // one-line diagnostic and the compile exit (std::length_error and
  // std::bad_alloc aborted the tools before, exit 134). Sanitizer runtimes
  // reserve more address space than the limit leaves.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer runtimes do not start under the limit";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer runtimes do not start under the limit";
#endif
#endif
  const std::string Limit = "ulimit -v 1048576 && ";
  const std::string In =
      "/tmp/splc-test-large-" + std::to_string(getpid()) + ".spl";
  auto ExpectOneLine = [](const RunResult &R, const char *Tool) {
    EXPECT_EQ(exitStatus(R), 4) << R.Output;
    EXPECT_EQ(R.Output.rfind(std::string(Tool) +
                                 ": error: too large to compile in memory",
                             0),
              0u)
        << R.Output;
    EXPECT_EQ(std::count(R.Output.begin(), R.Output.end(), '\n'), 1)
        << R.Output;
  };
  for (const char *Source : {"(WHT 2147483648)", "(F 1073741824)"}) {
    std::ofstream(In) << Source << "\n";
    ExpectOneLine(runCommand(Limit + splcPath() + " " + In), "splc");
  }
  std::remove(In.c_str());
  ExpectOneLine(runCommand(Limit + splrunPath() +
                           " --transform fft --size 1073741824 --no-wisdom"),
                "splrun");
}

TEST(Splrun, DegradationChainSurvivesInjectedFaults) {
  // Acceptance criterion: with the native compile *and* the VM tier both
  // forced to fail, splrun must fall through to the dense-matrix oracle
  // and still produce a numerically correct (1e-10) verified result.
  auto R = runCommand("SPL_FAULT=native-compile,vm-exec " + splrunPath() +
                      " --transform fft --size 16 --batch 4 --verify "
                      "--no-wisdom");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_NE(R.Output.find("backend oracle"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("oracle backend vs dense fft oracle"),
            std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("OK"), std::string::npos) << R.Output;
  EXPECT_EQ(R.Output.find("FAIL"), std::string::npos) << R.Output;
}

TEST(Splc, UnknownTransformIsUsageError) {
  // Acceptance criterion: --transform dct5 names the supported set and
  // exits with the usage code on both tools.
  auto R = runCommand(splcPath() + " --best-fft 8 --transform dct5");
  EXPECT_EQ(exitStatus(R), 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown transform 'dct5'"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("supported:"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("rdft"), std::string::npos) << R.Output;
}

TEST(Splrun, UnknownTransformIsUsageError) {
  auto R = runCommand(splrunPath() + " --size 8 --transform dct5");
  EXPECT_EQ(exitStatus(R), 2) << R.Output;
  EXPECT_NE(R.Output.find("unknown transform 'dct5'"), std::string::npos)
      << R.Output;
  EXPECT_NE(R.Output.find("supported:"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("dct4"), std::string::npos) << R.Output;
}

TEST(Splc, RuleTransformsEmitSubroutines) {
  auto R = runCommand(splcPath() + " --best-fft 8 --transform dct3");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_NE(R.Output.find("void dct38"), std::string::npos) << R.Output;
  // wht has no rule; search mode emits the Planner's enumerated winner.
  auto W = runCommand(splcPath() + " --best-fft 8 --transform wht "
                                   "--no-wisdom");
  EXPECT_EQ(exitStatus(W), 0) << W.Output;
  EXPECT_NE(W.Output.find("void wht8"), std::string::npos) << W.Output;
}

TEST(Splc, RdftEmitsLinearSizeCode) {
  // rdft N compiles S_N realify(F_{N/2}): the searched F_{N/2} plus one
  // split loop, so its C stays within twice the C of fft N/2. A dense
  // N x N extraction matrix over F_N emitted hundreds of times more.
  const std::string Base =
      "/tmp/spl-tool-test-rdft-" + std::to_string(getpid());
  const std::string Rdft = Base + "-rdft4096.c", Fft = Base + "-fft2048.c";
  auto R = runCommand(splcPath() + " --best-fft 4096 --transform rdft "
                                   "--no-wisdom -o " + Rdft);
  ASSERT_EQ(exitStatus(R), 0) << R.Output;
  auto F = runCommand(splcPath() + " --best-fft 2048 --no-wisdom -o " + Fft);
  ASSERT_EQ(exitStatus(F), 0) << F.Output;
  const auto RdftBytes = std::filesystem::file_size(Rdft);
  const auto FftBytes = std::filesystem::file_size(Fft);
  EXPECT_LE(RdftBytes, 2 * FftBytes)
      << "rdft 4096: " << RdftBytes << " bytes, fft 2048: " << FftBytes;
  if (std::system("cc --version > /dev/null 2>&1") == 0) {
    auto C = runCommand("cc -c " + Rdft + " -o " + Base + ".o");
    EXPECT_EQ(exitStatus(C), 0) << C.Output;
    std::remove((Base + ".o").c_str());
  }
  std::remove(Rdft.c_str());
  std::remove(Fft.c_str());
}

TEST(Splc, LowOptSearchDoesNotPoisonWisdom) {
  // -O only shapes splc's emitted code. The search costs candidates at the
  // default level, so the wisdom a -O0/-O1 search records is the wisdom
  // splrun would record itself.
  const std::string Splrun = splrunPath() +
                             " --size 256 --unroll 16 --backend vm --stats";
  auto Cost = [](const std::string &Out) {
    size_t At = Out.find("search cost ");
    return At == std::string::npos
               ? std::string()
               : Out.substr(At, Out.find_first_of(" ,)\n", At + 12) - At);
  };
  auto Fresh = runCommand(Splrun + " --no-wisdom");
  ASSERT_EQ(exitStatus(Fresh), 0) << Fresh.Output;
  EXPECT_EQ(Cost(Fresh.Output), "search cost 7328") << Fresh.Output;

  const std::string W =
      "/tmp/spl-tool-test-poison-" + std::to_string(getpid()) + ".wisdom";
  for (const char *Level : {"-O0", "-O1"}) {
    std::remove(W.c_str());
    auto S = runCommand(splcPath() + " " + Level +
                        " -B 16 --best-fft 256 --wisdom " + W +
                        " -o /dev/null");
    ASSERT_EQ(exitStatus(S), 0) << Level << ": " << S.Output;
    auto R = runCommand(Splrun + " --wisdom " + W);
    ASSERT_EQ(exitStatus(R), 0) << Level << ": " << R.Output;
    EXPECT_EQ(Cost(R.Output), Cost(Fresh.Output)) << Level << ": " << R.Output;
  }
  spl::test::removeRecordFile(W);
}

TEST(Splrun, RegistryTransformsVerifyAgainstOracles) {
  for (const char *Name : {"rdft", "dct2", "dct3", "dct4"}) {
    auto R = runCommand(splrunPath() + " --transform " + Name +
                        " --size 16 --batch 4 --backend vm --verify "
                        "--no-wisdom");
    EXPECT_EQ(exitStatus(R), 0) << Name << ": " << R.Output;
    EXPECT_NE(R.Output.find(std::string("dense ") + Name + " oracle"),
              std::string::npos)
        << R.Output;
    EXPECT_NE(R.Output.find("OK"), std::string::npos) << R.Output;
    EXPECT_EQ(R.Output.find("FAIL"), std::string::npos) << R.Output;
  }
}

TEST(Splrun, ShapedPlansVerifyAgainstKronOracles) {
  auto R = runCommand(splrunPath() + " --shape 8x4 --batch 2 --backend vm "
                                     "--verify --no-wisdom");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_NE(R.Output.find("fft 8x4"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("dense fft oracle"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("FAIL"), std::string::npos) << R.Output;

  auto D = runCommand(splrunPath() + " --transform dct2 --shape 4x4 "
                                     "--batch 2 --backend vm --verify "
                                     "--no-wisdom");
  EXPECT_EQ(exitStatus(D), 0) << D.Output;
  EXPECT_NE(D.Output.find("dct2 4x4"), std::string::npos) << D.Output;
  EXPECT_EQ(D.Output.find("FAIL"), std::string::npos) << D.Output;
}

TEST(Splrun, StridedOddBatchVerifies) {
  // The odd-batch strided case from the issue: howmany 7 at stride 3,
  // halfcomplex layout, gathered vectors checked against dense execution.
  auto R = runCommand(splrunPath() + " --transform rdft --size 8 "
                                     "--howmany 7 --stride 3 --backend vm "
                                     "--verify --no-wisdom");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_NE(R.Output.find("(strided)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("strided batch of 7"), std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("FAIL"), std::string::npos) << R.Output;

  // Strided layouts are a local-execution feature; the wire ships dense
  // batches only.
  auto C = runCommand(splrunPath() + " --transform rdft --size 8 "
                                     "--howmany 7 --stride 3 "
                                     "--connect /tmp/never-bound.sock");
  EXPECT_EQ(exitStatus(C), 2) << C.Output;
}

TEST(Splrun, VerifySkipNamesTheRequestedBackend) {
  // A plan that never tried the native tier says which backend was asked
  // for, not a fixed "vm".
  auto R = runCommand(splrunPath() + " --transform rdft --size 8 "
                                     "--backend oracle --verify --no-wisdom");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_NE(R.Output.find("native backend not in use (oracle requested)"),
            std::string::npos)
      << R.Output;
  EXPECT_EQ(R.Output.find("FAIL"), std::string::npos) << R.Output;
}

TEST(Splrun, RegistryTransformsDegradeUnderInjectedFaults) {
  // SPL_FAULT=native-compile must demote every registry transform to the
  // VM tier and still verify against its dense oracle.
  for (const char *Name : {"rdft", "dct4"}) {
    auto R = runCommand("SPL_FAULT=native-compile " + splrunPath() +
                        " --transform " + Name +
                        " --size 16 --batch 4 --backend native --verify "
                        "--no-wisdom");
    EXPECT_EQ(exitStatus(R), 0) << Name << ": " << R.Output;
    EXPECT_NE(R.Output.find("backend vm"), std::string::npos) << R.Output;
    EXPECT_NE(R.Output.find("fell back"), std::string::npos) << R.Output;
    EXPECT_EQ(R.Output.find("FAIL"), std::string::npos) << R.Output;
  }
}

TEST(Splc, OutputFileOption) {
  std::string OutFile = "/tmp/splc-test-out-" + std::to_string(getpid()) +
                        ".c";
  auto R = runSplc("-o " + OutFile, "(F 2)");
  EXPECT_EQ(R.ExitCode, 0);
  std::ifstream F(OutFile);
  ASSERT_TRUE(F.good());
  std::ostringstream SS;
  SS << F.rdbuf();
  EXPECT_NE(SS.str().find("void sub0"), std::string::npos);
  std::remove(OutFile.c_str());
}

TEST(Splc, VersionPrintsBuildInfo) {
  auto R = runCommand(splcPath() + " --version");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_NE(R.Output.find("splc (spl)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("built "), std::string::npos) << R.Output;
  // --help documents the flag.
  auto H = runCommand(splcPath() + " --help");
  EXPECT_NE(H.Output.find("--version"), std::string::npos) << H.Output;
}

TEST(Splrun, VersionPrintsBuildInfo) {
  auto R = runCommand(splrunPath() + " --version");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_NE(R.Output.find("splrun (spl)"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("built "), std::string::npos) << R.Output;
  auto H = runCommand(splrunPath() + " --help");
  EXPECT_NE(H.Output.find("--version"), std::string::npos) << H.Output;
  EXPECT_NE(H.Output.find("--stats-json"), std::string::npos) << H.Output;
}

TEST(Splc, ProfilePrintsStageTable) {
  auto R = runSplc("--profile -B 16", Fft16Source);
  EXPECT_EQ(R.ExitCode, 0) << R.Output;
  EXPECT_NE(R.Output.find("profile:"), std::string::npos) << R.Output;
  // The table lists the instrumented pipeline stages with their latencies.
  EXPECT_NE(R.Output.find("compile.parse_ns"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("compile.codegen_ns"), std::string::npos)
      << R.Output;
}

TEST(Splrun, StatsJsonAndTraceJsonDumps) {
  std::string Stem = "/tmp/splrun-telemetry-" + std::to_string(getpid());
  std::string StatsPath = Stem + ".json";
  std::string TracePath = Stem + ".trace.json";
  // Cold search (--no-wisdom) guarantees candidates are actually evaluated.
  auto R = runCommand(splrunPath() + " --transform fft --size 16 --batch 4 " +
                      "--no-wisdom --stats-json " + StatsPath +
                      " --trace-json " + TracePath);
  EXPECT_EQ(exitStatus(R), 0) << R.Output;

  std::ifstream SF(StatsPath);
  ASSERT_TRUE(SF.good());
  std::ostringstream SS;
  SS << SF.rdbuf();
  std::string Stats = SS.str();
  std::remove(StatsPath.c_str());
  // The acceptance trio: candidates were evaluated, the execute histogram
  // is populated, and the per-tier demotion counters are present.
  auto numberAfter = [](const std::string &Json,
                        const std::string &Prefix) -> long long {
    auto Pos = Json.find(Prefix);
    if (Pos == std::string::npos)
      return -1;
    return std::atoll(Json.c_str() + Pos + Prefix.size());
  };
  EXPECT_GT(numberAfter(Stats, "\"search.candidates_evaluated\":"), 0)
      << Stats;
  EXPECT_GT(numberAfter(Stats, "\"runtime.execute_ns\":{\"count\":"), 0)
      << Stats;
  EXPECT_GE(numberAfter(Stats, "\"runtime.demote.native\":"), 0) << Stats;
  EXPECT_GE(numberAfter(Stats, "\"runtime.demote.vm\":"), 0) << Stats;

  std::ifstream TF(TracePath);
  ASSERT_TRUE(TF.good());
  std::ostringstream TS;
  TS << TF.rdbuf();
  std::string Trace = TS.str();
  std::remove(TracePath.c_str());
  // A chrome://tracing complete-event array with the pipeline spans.
  ASSERT_FALSE(Trace.empty());
  EXPECT_EQ(Trace.front(), '[');
  EXPECT_NE(Trace.find("\"ph\":\"X\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"name\":\"plan\""), std::string::npos) << Trace;
  EXPECT_NE(Trace.find("\"name\":\"execute\""), std::string::npos) << Trace;
}

// The docs/KERNEL_CACHE.md worked example, as a test: a cold run compiles
// and populates, a warm run of the same process-external command maps the
// cached kernel and trial runner with zero compiler invocations.
TEST(Splrun, KernelCacheColdThenWarm) {
  if (faultsArmed())
    GTEST_SKIP() << "SPL_FAULT armed: native compiles are expected to fail";
  std::string Stem = "/tmp/splrun-kcache-" + std::to_string(getpid());
  std::string CacheDir = Stem + ".cache";
  std::string Wisdom = Stem + ".wisdom";
  std::string ColdJson = Stem + ".cold.json";
  std::string WarmJson = Stem + ".warm.json";
  std::string Common = splrunPath() + " --transform fft --size 16 --batch 2" +
                       " --kernel-cache " + CacheDir + " --wisdom " + Wisdom +
                       " --stats-json ";

  auto numberAfter = [](const std::string &Json,
                        const std::string &Prefix) -> long long {
    auto Pos = Json.find(Prefix);
    if (Pos == std::string::npos)
      return -1;
    return std::atoll(Json.c_str() + Pos + Prefix.size());
  };
  auto slurpAndRemove = [](const std::string &Path) {
    std::ifstream In(Path);
    std::ostringstream SS;
    SS << In.rdbuf();
    std::remove(Path.c_str());
    return SS.str();
  };

  auto Cold = runCommand(Common + ColdJson);
  EXPECT_EQ(exitStatus(Cold), 0) << Cold.Output;
  std::string ColdStats = slurpAndRemove(ColdJson);
  // A run that demoted to the VM (no compiler) proves nothing; skip then.
  if (numberAfter(ColdStats, "\"runtime.demote.native\":") > 0) {
    std::filesystem::remove_all(CacheDir);
    spl::test::removeRecordFile(Wisdom);
    GTEST_SKIP() << "native backend unavailable; cache has nothing to hold";
  }
  EXPECT_GE(numberAfter(ColdStats, "\"native.compiles\":"), 1) << ColdStats;
  EXPECT_GE(numberAfter(ColdStats, "\"kernelcache.inserts\":"), 1)
      << ColdStats;
  // The trial runner is built once, into the cache beside the kernels,
  // and started once: every trial is a request to the same runner.
  EXPECT_EQ(numberAfter(ColdStats, "\"native.runner_builds\":"), 1)
      << ColdStats;
  EXPECT_EQ(numberAfter(ColdStats, "\"native.runner_starts\":"), 1)
      << ColdStats;

  auto Warm = runCommand(Common + WarmJson);
  EXPECT_EQ(exitStatus(Warm), 0) << Warm.Output;
  std::string WarmStats = slurpAndRemove(WarmJson);
  EXPECT_EQ(numberAfter(WarmStats, "\"native.compiles\":"), 0) << WarmStats;
  EXPECT_EQ(numberAfter(WarmStats, "\"native.runner_builds\":"), 0)
      << WarmStats;
  EXPECT_EQ(numberAfter(WarmStats, "\"native.runner_starts\":"), 1)
      << WarmStats;
  EXPECT_GE(numberAfter(WarmStats, "\"kernelcache.hits\":"), 1) << WarmStats;

  // One record file and its lock, the artifacts, the tables files and the
  // population locks, and nothing else.
  for (const auto &E : std::filesystem::directory_iterator(CacheDir)) {
    const std::string Ext = E.path().extension().string();
    EXPECT_TRUE(E.path().filename() == "index" || Ext == ".so" ||
                Ext == ".tables" || Ext == ".lock")
        << E.path();
  }
  EXPECT_TRUE(std::filesystem::exists(CacheDir + "/index"));
  EXPECT_TRUE(std::filesystem::exists(CacheDir + "/index.lock"));

  // --no-kernel-cache bypasses cleanly: compiles again, touches nothing.
  std::string OffJson = Stem + ".off.json";
  auto Off = runCommand(splrunPath() +
                        " --transform fft --size 16 --batch 2" +
                        " --no-kernel-cache --wisdom " + Wisdom +
                        " --stats-json " + OffJson);
  EXPECT_EQ(exitStatus(Off), 0) << Off.Output;
  std::string OffStats = slurpAndRemove(OffJson);
  EXPECT_GE(numberAfter(OffStats, "\"native.compiles\":"), 1) << OffStats;
  EXPECT_EQ(numberAfter(OffStats, "\"kernelcache.hits\":"), 0) << OffStats;

  std::filesystem::remove_all(CacheDir);
  spl::test::removeRecordFile(Wisdom);
}

/// "<pid> <exe>" of every process whose executable lies in \p Dir.
std::vector<std::string> processesRunningFrom(const std::string &Dir) {
  std::vector<std::string> Found;
  for (const auto &E : std::filesystem::directory_iterator("/proc")) {
    std::error_code EC;
    const auto Exe = std::filesystem::read_symlink(E.path() / "exe", EC);
    if (!EC && Exe.string().rfind(Dir + "/", 0) == 0)
      Found.push_back(E.path().filename().string() + " " + Exe.string());
  }
  return Found;
}

// The resident trial runner lives in TMPDIR and is reaped before splrun's
// exit returns: once splrun is gone, no process runs from that directory.
TEST(Splrun, TrialRunnerDoesNotOutliveSplrun) {
  if (faultsArmed())
    GTEST_SKIP() << "SPL_FAULT armed: native compiles are expected to fail";
  const std::string Tmp = "/tmp/splrun-tmpdir-" + std::to_string(getpid());
  std::filesystem::create_directories(Tmp);
  auto R = runCommand("TMPDIR=" + Tmp + " " + splrunPath() +
                      " --transform fft --size 16 --batch 2 --no-wisdom "
                      "--no-kernel-cache");
  EXPECT_EQ(exitStatus(R), 0) << R.Output;
  EXPECT_NE(R.Output.find("native"), std::string::npos) << R.Output;
  const auto Left = processesRunningFrom(Tmp);
  EXPECT_TRUE(Left.empty()) << ::testing::PrintToString(Left);
  EXPECT_TRUE(std::filesystem::is_empty(Tmp)) << "temp files left in " << Tmp;
  std::filesystem::remove_all(Tmp);
}

// A runner whose owner is killed mid-trial sees its channel close, kills
// its hung trial child and exits.
TEST(Splrun, KilledSplrunTakesItsTrialRunnerDown) {
  if (faultsArmed())
    GTEST_SKIP() << "SPL_FAULT armed: native compiles are expected to fail";
  const std::string Tmp = "/tmp/splrun-killed-" + std::to_string(getpid());
  std::filesystem::create_directories(Tmp);
  auto Started = runCommand(
      "TMPDIR=" + Tmp + " SPL_FAULT=trial-hang SPL_TRIAL_TIMEOUT_MS=60000 " +
      splrunPath() +
      " --transform fft --size 16 --no-wisdom --no-kernel-cache "
      ">/dev/null 2>&1 & echo $!");
  const pid_t Splrun = std::atoi(Started.Output.c_str());
  ASSERT_GT(Splrun, 0) << Started.Output;
  // The hung trial: the runner and its child both run from Tmp.
  auto waitFor = [&](auto Done) {
    for (int I = 0; I != 600 && !Done(processesRunningFrom(Tmp).size()); ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return processesRunningFrom(Tmp).size();
  };
  const std::size_t Hung = waitFor([](std::size_t N) { return N >= 2; });
  ::kill(Splrun, SIGKILL);
  ASSERT_GE(Hung, 2u) << "no hung trial to interrupt";
  const std::size_t Left = waitFor([](std::size_t N) { return N == 0; });
  EXPECT_EQ(Left, 0u) << ::testing::PrintToString(processesRunningFrom(Tmp));
  std::filesystem::remove_all(Tmp);
}

} // namespace
