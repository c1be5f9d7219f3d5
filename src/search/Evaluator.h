//===- search/Evaluator.h - Candidate cost evaluation -----------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cost evaluators for the search engine (the "performance evaluation"
/// component of the SPIRAL framework, Figure 1). A formula is compiled
/// through the full pipeline and costed by operation count, by timing the
/// VM, or by timing natively compiled C — the paper's "run times and other
/// performance metrics obtained by executing the code in the target machine
/// or estimated using models". The operation-count model also costs
/// loop-code Cooley-Tukey candidates from their children's counts, without
/// compiling them.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SEARCH_EVALUATOR_H
#define SPL_SEARCH_EVALUATOR_H

#include "driver/Compiler.h"
#include "support/Deadline.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>

namespace spl {
namespace search {

/// The factors of a gen::ruleCooleyTukeyDIT(R, S, F_R, F_S) candidate and
/// the costs of its children F_R and F_S.
struct CooleyTukeyParts {
  std::int64_t R = 0;
  std::int64_t S = 0;
  double CostR = 0;
  double CostS = 0;
};

/// Base class: compiles candidates and assigns costs (lower is better).
///
/// cost() is safe to call from several search workers at once: candidate
/// compilation runs fully concurrently, while timed evaluators serialize
/// their measurements behind a mutex so concurrent workers never distort
/// each other's wall-clock readings.
///
/// Timed evaluations run under a watchdog: a candidate whose measurement
/// exceeds the timing budget (SPL_EVAL_TIMEOUT_MS, default 10 s) is retried
/// once and then scored as infinite cost, so one pathological kernel slows
/// the DP search by a bounded amount instead of hanging it.
class Evaluator {
public:
  Evaluator(Diagnostics &Diags, driver::CompilerOptions CompOpts);
  virtual ~Evaluator() = default;

  /// Cost of \p F; nullopt after reporting diagnostics on failure.
  std::optional<double> cost(const FormulaRef &F);

  /// Cost of an already-lowered program (what cost(F) measures after
  /// compiling F).
  std::optional<double> cost(const icode::Program &P);

  /// Cost of the Cooley-Tukey candidate \p P from its children's costs,
  /// without lowering it; nullopt when this cost model does not compose
  /// (call cost() on the formula instead). An answer counts as one
  /// evaluation.
  std::optional<double> composedCost(const CooleyTukeyParts &P);

  /// Compiles \p F through the shared pipeline to its final i-code.
  /// Defaults to complex data / real code (the FFT experiments); override
  /// via setDatatype for real transforms such as the WHT and DCTs.
  std::optional<icode::Program> compile(const FormulaRef &F);

  /// Sets the #datatype used for candidate compilation ("complex"|"real").
  void setDatatype(std::string D) { Datatype = std::move(D); }
  const std::string &datatype() const { return Datatype; }

  /// Short cost-model name used as a wisdom cache key component
  /// ("opcount" | "vmtime" | "nativetime").
  virtual const char *kindName() const = 0;

  /// True when costs come from wall-clock measurement. Timed evaluations
  /// are serialized so parallel searches keep clean measurements.
  virtual bool isTimed() const { return false; }

  /// Number of candidate evaluations performed (compilation + costing).
  /// A warm wisdom run reports 0 for cached sizes.
  std::uint64_t evaluations() const { return NumEvals.load(); }

  driver::CompilerOptions &options() { return CompOpts; }

  /// Overrides the per-measurement wall-clock budget and retry count.
  /// A budget <= 0 disables the watchdog.
  void setTimingBudget(double TimeoutSeconds, int Retries) {
    TimingTimeoutSeconds = TimeoutSeconds;
    TimingRetries = Retries < 0 ? 0 : Retries;
  }

  /// Caps all remaining evaluation work by \p D. Each watchdog attempt is
  /// bounded by min(SPL_EVAL_TIMEOUT_MS, remaining budget), retries are
  /// skipped once the budget is spent, and an expired deadline scores
  /// candidates as infinite cost without measuring — so a caller that ran
  /// out of budget never pays the watchdog-retry worst case.
  void setDeadline(support::Deadline D) { DL = std::move(D); }
  const support::Deadline &deadline() const { return DL; }

protected:
  /// Costs an already-compiled candidate.
  virtual std::optional<double> costCompiled(const icode::Program &P) = 0;

  /// The composed cost behind composedCost(); the default declines.
  virtual std::optional<double> compose(const CooleyTukeyParts &) {
    return std::nullopt;
  }

  /// Runs one measurement closure under the watchdog with the retry
  /// budget; \p Fn must own everything it touches (shared_ptr captures),
  /// because on timeout its thread is abandoned and may still be running.
  /// Returns infinity (with a warning) when every attempt times out.
  std::optional<double> timedCost(std::function<double()> Fn,
                                  const char *What);

  Diagnostics &Diags;
  driver::CompilerOptions CompOpts;
  std::string Datatype = "complex";
  support::Deadline DL;

private:
  void countEvaluation();
  /// Costs \p P, serialized for timed models.
  std::optional<double> measure(const icode::Program &P);

  double TimingTimeoutSeconds;
  int TimingRetries = 1;
  std::mutex TimingMutex;
  std::atomic<std::uint64_t> NumEvals{0};
};

/// Cost = dynamic floating-point operation count (a machine model).
///
/// Loop-code Cooley-Tukey candidates compose: for N = R*S above the unroll
/// threshold on complex data, (F_R (x) I_S) T (I_R (x) F_S) L costs
/// S*C(F_R) + R*C(F_S) + 6N — the twiddle diagonal is a table read in loop
/// code, never constant-folded, so it costs one 6-flop complex multiply
/// per point, and the permutation costs nothing. Straight-line candidates
/// (N <= threshold) fold constants and are lowered.
class OpCountEvaluator : public Evaluator {
public:
  using Evaluator::Evaluator;

  const char *kindName() const override { return "opcount"; }

protected:
  std::optional<double> costCompiled(const icode::Program &P) override;
  std::optional<double> compose(const CooleyTukeyParts &P) override;
};

/// Cost = best-of-k VM execution time (portable measurement).
class VMTimeEvaluator : public Evaluator {
public:
  VMTimeEvaluator(Diagnostics &Diags, driver::CompilerOptions CompOpts,
                  int Repeats = 3)
      : Evaluator(Diags, std::move(CompOpts)), Repeats(Repeats) {}

  const char *kindName() const override { return "vmtime"; }
  bool isTimed() const override { return true; }

protected:
  std::optional<double> costCompiled(const icode::Program &P) override;

private:
  int Repeats;
};

/// Cost = best-of-k execution time of natively compiled C (the honest
/// measurement; requires a system C compiler — check available()).
class NativeTimeEvaluator : public Evaluator {
public:
  NativeTimeEvaluator(Diagnostics &Diags, driver::CompilerOptions CompOpts,
                      int Repeats = 3)
      : Evaluator(Diags, std::move(CompOpts)), Repeats(Repeats) {}

  /// True when native compilation works on this machine.
  static bool available();

  const char *kindName() const override { return "nativetime"; }
  bool isTimed() const override { return true; }

protected:
  std::optional<double> costCompiled(const icode::Program &P) override;

private:
  int Repeats;
};

} // namespace search
} // namespace spl

#endif // SPL_SEARCH_EVALUATOR_H
