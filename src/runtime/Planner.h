//===- runtime/Planner.h - Spec-to-plan materialization ---------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FFTW-style plan half of the runtime layer. Planner turns a PlanSpec
/// ("fft, 1024 points, unroll 16") into an executable Plan: it consults the
/// persistent wisdom cache, runs the Section-4 dynamic-programming search on
/// a miss, compiles the winning formula through the full pipeline, and picks
/// the execution substrate by walking a degradation chain: natively compiled
/// C (proved by a guarded trial execution first), the i-code VM, and — when
/// even that fails — a dense matrix-vector oracle. Every failure along the
/// chain is a typed perf::KernelError or recorded reason, so fallback is a
/// decision, not a crash. See docs/RELIABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_RUNTIME_PLANNER_H
#define SPL_RUNTIME_PLANNER_H

#include "ir/Formula.h"
#include "runtime/Plan.h"
#include "search/PlanCache.h"
#include "support/Deadline.h"
#include "support/Diagnostics.h"

#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace spl {
namespace search {
class Evaluator;
}
namespace runtime {

/// Planner-wide configuration (shared by every plan it builds).
struct PlannerOptions {
  /// Search cost model: "opcount" (deterministic, default) | "vmtime" |
  /// "native" (needs a working C compiler; degrades to opcount with a
  /// warning when there is none).
  std::string Evaluator = "opcount";

  /// Worker threads for candidate evaluation during searches.
  int SearchThreads = 1;

  /// Consult / record the persistent plan cache ("wisdom").
  bool UseWisdom = true;

  /// Wisdom file; empty means search::PlanCache::defaultPath().
  std::string WisdomPath;

  /// Candidate cap for the flat WHT search.
  int WhtCandidateCap = 24;

  /// Enables the persistent compiled-kernel cache (perf::KernelCache,
  /// docs/KERNEL_CACHE.md) at this directory; empty inherits the
  /// process-wide configuration (SPL_KERNEL_CACHE or tool flags).
  std::string KernelCacheDir;

  /// Force-disables the kernel cache regardless of environment or
  /// KernelCacheDir (the --no-kernel-cache flag).
  bool DisableKernelCache = false;

  /// Default wall-clock budget per plan() call in milliseconds (0:
  /// unbounded). ~70% of the remaining budget goes to the search slice
  /// (which returns best-so-far on expiry), the rest bounds the compile +
  /// trial slice — so a budgeted plan degrades in tier under pressure
  /// instead of blocking. The deadline-bearing plan() overload takes
  /// precedence over this default.
  std::int64_t DeadlineMs = 0;
};

/// Why plan() returned null — lets the service layer answer a typed
/// DEADLINE_EXCEEDED instead of a generic planning failure.
enum class PlanError {
  None,             ///< plan() succeeded.
  InvalidSpec,      ///< validateSpec rejected the request.
  DeadlineExceeded, ///< The budget expired before any plan could be built.
  Failed,           ///< Search/compilation failed for a non-deadline reason.
};

/// The search stage's result (Planner::choose): the formula a plan for the
/// spec compiles, before any backend is picked.
struct Choice {
  FormulaRef Formula;            ///< The winner; a Kronecker product for N-D.
  double Cost = 0;               ///< Its evaluator cost (0 for a rule).
  std::uint64_t Evaluations = 0; ///< Candidates costed; 0 on a warm hit.
  /// The evaluator that costed it. plan() reuses it to cost a rule
  /// transform's lowered program and to gate the codegen race.
  std::shared_ptr<search::Evaluator> Eval;
};

/// Builds executable plans. Thread-safe: concurrent plan() calls share the
/// diagnostics engine and wisdom cache, both of which are internally locked.
class Planner {
public:
  explicit Planner(Diagnostics &Diags, PlannerOptions Opts = PlannerOptions());

  /// Materializes a plan for \p Spec. Returns null after reporting
  /// diagnostics when the spec is invalid or compilation fails. Budgeted by
  /// PlannerOptions::DeadlineMs.
  std::shared_ptr<Plan> plan(const PlanSpec &Spec);

  /// Deadline-bearing variant: plans under \p Deadline (unbounded deadlines
  /// behave exactly like plan(Spec)) and reports the typed reason for a
  /// null result through \p Err when non-null. A plan built under an
  /// expired deadline is marked Plan::deadlinePressured() so callers can
  /// choose not to memoize the degraded result.
  std::shared_ptr<Plan> plan(const PlanSpec &Spec,
                             const support::Deadline &Deadline,
                             PlanError *Err = nullptr);

  /// The search stage of plan(), and the one search front door (splc
  /// --best-fft uses it too): validates \p Spec, loads wisdom once, costs
  /// candidates under the spec's -B threshold at the default optimization
  /// level, and picks the formula by the transform's family (DP search,
  /// flat WHT enumeration or the registry rule), one per dimension joined
  /// as a Kronecker product. Searches under \p Deadline and returns its
  /// best-so-far winner on expiry; null after reporting diagnostics, with
  /// the reason in \p Err when non-null.
  std::optional<Choice> choose(const PlanSpec &Spec,
                               const support::Deadline &Deadline,
                               PlanError *Err = nullptr);

  /// Checks \p Spec without planning: reports Diagnostics errors and
  /// returns false on an invalid transform/size/datatype combination.
  /// Tools use this to distinguish "bad request" from "planning failed".
  static bool validateSpec(const PlanSpec &Spec, Diagnostics &Diags);

  /// The per-kernel trial-execution deadline (SPL_TRIAL_TIMEOUT_MS,
  /// default 5 s).
  static double trialTimeoutSeconds();

  /// Persists accumulated wisdom (merge-on-save). No-op without UseWisdom.
  bool saveWisdom();

  /// The wisdom cache (exposed for stats and tests).
  search::PlanCache &wisdom() { return Wisdom; }

  const PlannerOptions &options() const { return Opts; }

  /// The wisdom path in effect (resolved default when unset).
  std::string wisdomPath() const;

private:
  std::unique_ptr<search::Evaluator>
  makeEvaluator(const std::string &Datatype, std::int64_t UnrollThreshold);

  /// Flat best-of-enumeration search for the WHT (wisdom-backed).
  bool chooseWHT(const PlanSpec &Spec, search::Evaluator &Eval,
                 FormulaRef &FOut, double &CostOut);

  Diagnostics &Diags;
  PlannerOptions Opts;
  search::PlanCache Wisdom;
  std::once_flag WisdomOnce;
};

} // namespace runtime
} // namespace spl

#endif // SPL_RUNTIME_PLANNER_H
