//===- search/Evaluator.cpp - Candidate cost evaluation -----------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "search/Evaluator.h"

#include "perf/KernelRunner.h"
#include "perf/NativeCompile.h"
#include "support/FaultInjection.h"
#include "support/Subprocess.h"
#include "support/Timer.h"
#include "telemetry/Metrics.h"
#include "vm/Executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <random>
#include <thread>

using namespace spl;
using namespace spl::search;

Evaluator::Evaluator(Diagnostics &Diags, driver::CompilerOptions CompOpts)
    : Diags(Diags), CompOpts(std::move(CompOpts)),
      TimingTimeoutSeconds(envTimeoutSeconds("SPL_EVAL_TIMEOUT_MS", 10.0)) {}

std::optional<icode::Program> Evaluator::compile(const FormulaRef &F) {
  driver::Compiler Comp(Diags);
  DirectiveState Dirs;
  Dirs.SubName = "cand";
  Dirs.Datatype = Datatype;
  Dirs.CodeType = "real";
  Dirs.Language = "c";
  driver::CompilerOptions Opts = CompOpts;
  // Candidates are costed from i-code (or native-compiled with run-time
  // tables); rendering inline-table C text here would dominate the search.
  Opts.EmitCode = false;
  auto Unit = Comp.compileFormula(F, Dirs, Opts);
  if (!Unit)
    return std::nullopt;
  return std::move(Unit->Final);
}

void Evaluator::countEvaluation() {
  NumEvals.fetch_add(1, std::memory_order_relaxed);
  telemetry::SearchCandidatesEvaluated.add();
}

std::optional<double> Evaluator::cost(const FormulaRef &F) {
  if (DL.expired())
    return std::numeric_limits<double>::infinity();
  countEvaluation();
  auto P = compile(F);
  if (!P)
    return std::nullopt;
  return measure(*P);
}

std::optional<double> Evaluator::cost(const icode::Program &P) {
  if (DL.expired())
    return std::numeric_limits<double>::infinity();
  countEvaluation();
  return measure(P);
}

std::optional<double> Evaluator::composedCost(const CooleyTukeyParts &P) {
  auto C = compose(P);
  if (!C)
    return std::nullopt;
  if (DL.expired())
    return std::numeric_limits<double>::infinity();
  countEvaluation();
  return C;
}

std::optional<double> Evaluator::measure(const icode::Program &P) {
  if (!isTimed())
    return costCompiled(P);
  // Native compilation inside NativeTimeEvaluator::costCompiled is also
  // serialized here; that is deliberate — cc processes competing for cores
  // would perturb the measurement of whoever is currently timing.
  std::lock_guard<std::mutex> Lock(TimingMutex);
  return costCompiled(P);
}

namespace {

/// Runs \p Fn on a watchdog thread with a wall-clock deadline. On timeout
/// the thread is detached (it finishes — or not — on its own; Fn must own
/// its captures) and nullopt is returned. A non-positive deadline runs
/// \p Fn inline.
std::optional<double> runWithDeadline(const std::function<double()> &Fn,
                                      double Seconds) {
  if (Seconds <= 0)
    return Fn();
  struct Shared {
    std::mutex M;
    std::condition_variable CV;
    bool Done = false;
    double Value = 0;
  };
  auto S = std::make_shared<Shared>();
  std::thread T([S, Fn] {
    double V = Fn();
    std::lock_guard<std::mutex> Lock(S->M);
    S->Value = V;
    S->Done = true;
    S->CV.notify_all();
  });
  std::unique_lock<std::mutex> Lock(S->M);
  bool Finished = S->CV.wait_for(Lock, std::chrono::duration<double>(Seconds),
                                 [&] { return S->Done; });
  Lock.unlock();
  if (Finished) {
    T.join();
    return S->Value;
  }
  T.detach();
  return std::nullopt;
}

} // namespace

std::optional<double> Evaluator::timedCost(std::function<double()> Fn,
                                           const char *What) {
  for (int Attempt = 0; Attempt <= TimingRetries; ++Attempt) {
    // Each attempt is capped by the *remaining* caller budget, not just the
    // fixed SPL_EVAL_TIMEOUT_MS — otherwise a retry could double the
    // worst-case candidate time for a caller that is already out of time.
    const double Remaining = DL.remainingSeconds();
    if (Remaining <= 0) {
      Diags.warning(SourceLoc(),
                    std::string(What) + " skipped: the search deadline is "
                                        "spent; scoring the candidate as "
                                        "infinite cost");
      return std::numeric_limits<double>::infinity();
    }
    double Budget = TimingTimeoutSeconds;
    if (std::isfinite(Remaining))
      Budget = Budget > 0 ? std::min(Budget, Remaining) : Remaining;
    std::function<double()> Run = Fn;
    if (fault::at("eval-hang")) {
      // Sleep past the deadline, then fall through to the real measurement
      // so the abandoned thread terminates on its own.
      Run = [Fn, Budget]() -> double {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(Budget > 0 ? Budget + 1.0 : 1.0));
        return Fn();
      };
    }
    auto V = runWithDeadline(Run, Budget);
    if (V)
      return V;
    Diags.warning(SourceLoc(),
                  std::string(What) + " run exceeded the timing budget (" +
                      std::to_string(Budget) +
                      " s, SPL_EVAL_TIMEOUT_MS); attempt " +
                      std::to_string(Attempt + 1) + " of " +
                      std::to_string(TimingRetries + 1));
  }
  Diags.warning(SourceLoc(), std::string(What) +
                                 " timing budget exhausted; scoring the "
                                 "candidate as infinite cost");
  return std::numeric_limits<double>::infinity();
}

std::optional<double> OpCountEvaluator::costCompiled(const icode::Program &P) {
  return static_cast<double>(P.dynamicOpCount());
}

std::optional<double> OpCountEvaluator::compose(const CooleyTukeyParts &P) {
  const std::int64_t N = P.R * P.S;
  if (Datatype != "complex" || N <= CompOpts.UnrollThreshold)
    return std::nullopt;
  return static_cast<double>(P.S) * P.CostR +
         static_cast<double>(P.R) * P.CostS + 6.0 * static_cast<double>(N);
}

namespace {

std::vector<double> randomRealBuffer(size_t N) {
  std::mt19937 Gen(7);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<double> V(N);
  for (double &X : V)
    X = Dist(Gen);
  return V;
}

} // namespace

std::optional<double> VMTimeEvaluator::costCompiled(const icode::Program &P) {
  // The closure owns a copy of the program: if it is abandoned on timeout,
  // it must not reference this call's stack.
  auto Prog = std::make_shared<icode::Program>(P);
  const int Reps = Repeats;
  return timedCost(
      [Prog, Reps]() -> double {
        vm::Executor VM(*Prog);
        std::vector<double> In =
            randomRealBuffer(static_cast<size_t>(VM.inputLen()));
        std::vector<double> Out(static_cast<size_t>(VM.outputLen()), 0.0);
        return timeBestOf([&] { VM.runReal(In.data(), Out.data()); }, Reps);
      },
      "vm timing");
}

bool NativeTimeEvaluator::available() {
  return perf::NativeModule::available();
}

std::optional<double> NativeTimeEvaluator::costCompiled(const icode::Program &P) {
  perf::KernelError Err;
  perf::KernelBuildOptions BO;
  // The compiler subprocess is bounded by the remaining search budget, not
  // just the fixed SPL_CC_TIMEOUT_MS.
  BO.Deadline = DL;
  auto Built = perf::CompiledKernel::create(P, &Err, BO);
  if (!Built) {
    Diags.error(SourceLoc(), "native compilation failed: " + Err.str());
    return std::nullopt;
  }
  // Shared ownership keeps the module loaded for a timing thread abandoned
  // by the watchdog.
  std::shared_ptr<perf::CompiledKernel> K(std::move(Built));
  const int Reps = Repeats;
  return timedCost([K, Reps]() -> double { return K->time(Reps); },
                   "native timing");
}
