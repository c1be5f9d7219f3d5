//===- runtime/Planner.cpp - Spec-to-plan materialization ---------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Planner.h"

#include "driver/Compiler.h"
#include "frontend/Parser.h"
#include "gen/Enumerate.h"
#include "gen/Rules.h"
#include "ir/Builder.h"
#include "perf/KernelCache.h"
#include "search/DPSearch.h"
#include "search/Evaluator.h"
#include "support/FaultInjection.h"
#include "support/HostInfo.h"
#include "support/Subprocess.h"
#include "telemetry/Trace.h"
#include "transforms/Registry.h"

#include <algorithm>
#include <cmath>
#include <string_view>

using namespace spl;
using namespace spl::runtime;

namespace {

/// Best-of-k repetitions for the timed evaluators and the codegen race.
constexpr int TimingRepeats = 2;

/// Normalized copy of \p Spec: transform/datatype defaults filled in from
/// the registry, total Size derived from a multi-dimensional Shape, and a
/// one-element Shape collapsed to the equivalent 1-D spec (so its key and
/// wisdom/kernel-cache identities match the plain 1-D form).
PlanSpec normalize(const PlanSpec &Spec) {
  PlanSpec S = Spec;
  if (S.Transform.empty())
    S.Transform = "fft";
  if (!S.Shape.empty()) {
    std::int64_t Prod = 1;
    for (std::int64_t D : S.Shape) {
      if (D < 1 || Prod > (std::int64_t(1) << 40) / std::max<std::int64_t>(D, 1)) {
        Prod = -1; // Poisoned: validateSpec rejects it as a bad size.
        break;
      }
      Prod *= D;
    }
    S.Size = Prod;
    if (S.Shape.size() == 1)
      S.Shape.clear();
  }
  if (S.Datatype.empty()) {
    const transforms::TransformInfo *TI = transforms::lookup(S.Transform);
    S.Datatype = TI ? TI->NaturalDatatype : "complex";
  }
  return S;
}

/// The dimensions a spec plans over: its Shape, or {Size} for 1-D.
std::vector<std::int64_t> planDims(const PlanSpec &S) {
  if (S.Shape.size() >= 2)
    return S.Shape;
  return {S.Size};
}

/// Row-major row-column formula: the Kronecker product of the per-dimension
/// formulas (Equation 2; FFTc builds N-D FFTs the same way).
FormulaRef tensorOfDims(std::vector<FormulaRef> Parts) {
  FormulaRef Out = std::move(Parts.front());
  for (size_t I = 1; I != Parts.size(); ++I)
    Out = makeTensor(std::move(Out), std::move(Parts[I]));
  return Out;
}

/// SubName / kernel-cache tag: "fft1024", "rdft64", "fft32x32".
std::string subNameFor(const PlanSpec &S) {
  std::string Name = S.Transform;
  if (S.Shape.size() >= 2) {
    for (size_t I = 0; I != S.Shape.size(); ++I)
      Name += (I ? "x" : "") + std::to_string(S.Shape[I]);
  } else {
    Name += std::to_string(S.Size);
  }
  return Name;
}

} // namespace

Planner::Planner(Diagnostics &Diags, PlannerOptions Opts)
    : Diags(Diags), Opts(std::move(Opts)), Wisdom(Diags) {
  // Kernel-cache overrides are applied here (process-wide: one compiler,
  // one cache) so spld's ServerOptions.Planner reaches it too.
  if (this->Opts.DisableKernelCache)
    perf::KernelCache::setEnabled(false);
  else if (!this->Opts.KernelCacheDir.empty())
    perf::KernelCache::setDirectory(this->Opts.KernelCacheDir);
}

std::string Planner::wisdomPath() const {
  return Opts.WisdomPath.empty() ? search::PlanCache::defaultPath()
                                 : Opts.WisdomPath;
}

bool Planner::saveWisdom() {
  if (!Opts.UseWisdom)
    return true;
  return Wisdom.save(wisdomPath());
}

std::unique_ptr<search::Evaluator>
Planner::makeEvaluator(const std::string &Datatype,
                       std::int64_t UnrollThreshold) {
  driver::CompilerOptions CO;
  CO.UnrollThreshold = UnrollThreshold;
  CO.EmitCode = false; // Costing needs i-code, not rendered text.
  std::unique_ptr<search::Evaluator> E;
  if (Opts.Evaluator == "vmtime") {
    E = std::make_unique<search::VMTimeEvaluator>(Diags, CO,
                                                  TimingRepeats);
  } else if (Opts.Evaluator == "native") {
    if (search::NativeTimeEvaluator::available()) {
      E = std::make_unique<search::NativeTimeEvaluator>(Diags, CO,
                                                        TimingRepeats);
    } else {
      Diags.warning(SourceLoc(), "no working C compiler for the nativetime "
                                 "cost model; using opcount instead");
      E = std::make_unique<search::OpCountEvaluator>(Diags, CO);
    }
  } else {
    E = std::make_unique<search::OpCountEvaluator>(Diags, CO);
  }
  E->setDatatype(Datatype);
  return E;
}

bool Planner::chooseWHT(const PlanSpec &Spec, search::Evaluator &Eval,
                        FormulaRef &FOut, double &CostOut) {
  search::PlanKey Key;
  Key.Transform = "wht-flat" + std::to_string(Opts.WhtCandidateCap);
  Key.Size = Spec.Size;
  Key.Datatype = Eval.datatype();
  Key.UnrollThreshold = Spec.UnrollThreshold;
  Key.Evaluator = Eval.kindName();
  Key.Host = search::PlanCache::hostFingerprint();

  if (Opts.UseWisdom) {
    if (auto Cached = Wisdom.lookup(Key); Cached && !Cached->empty()) {
      Diagnostics ParseDiags; // A stale entry degrades to a miss.
      FormulaRef F = parseFormulaString(Cached->front().FormulaText,
                                        ParseDiags);
      if (F && !ParseDiags.hasErrors() && !F->isPattern() &&
          F->inSize() == Spec.Size && F->outSize() == Spec.Size) {
        FOut = F;
        CostOut = Cached->front().Cost;
        return true;
      }
      Diags.warning(SourceLoc(),
                    "wisdom entry for wht " + std::to_string(Spec.Size) +
                        " does not round-trip; re-searching");
    }
  }

  auto Cands = gen::enumerateWHT(
      Spec.Size, static_cast<size_t>(Opts.WhtCandidateCap));
  FormulaRef Best;
  double BestCost = 0;
  for (const FormulaRef &F : Cands) {
    auto C = Eval.cost(F);
    if (!C)
      continue;
    if (!Best || *C < BestCost) { // First-minimum: deterministic winner.
      Best = F;
      BestCost = *C;
    }
  }
  if (!Best) {
    Diags.error(SourceLoc(), "no WHT candidate of size " +
                                 std::to_string(Spec.Size) +
                                 " survived evaluation");
    return false;
  }
  // Never record a deadline-truncated enumeration: the "winner" may just be
  // the first candidate scored before the budget ran out.
  if (Opts.UseWisdom && !Eval.deadline().expired())
    Wisdom.insert(Key, {search::PlanEntry{Best->print(), BestCost}});
  FOut = Best;
  CostOut = BestCost;
  return true;
}

double Planner::trialTimeoutSeconds() {
  return envTimeoutSeconds("SPL_TRIAL_TIMEOUT_MS", 5.0);
}

bool Planner::validateSpec(const PlanSpec &Spec, Diagnostics &Diags) {
  PlanSpec S = normalize(Spec);

  // Rejection diagnostics enumerate what the registry actually supports,
  // so the hint stays correct as transforms are added.
  const transforms::TransformInfo *TI = transforms::lookup(S.Transform);
  if (!TI) {
    Diags.error(SourceLoc(), "unknown transform '" + S.Transform +
                                 "' (supported: " +
                                 transforms::supportedNames() + ")");
    return false;
  }
  if (S.Size < 2) {
    Diags.error(SourceLoc(), "plan size must be >= 2 (got " +
                                 std::to_string(S.Size) + ")");
    return false;
  }
  if (S.Datatype != "complex" && S.Datatype != "real") {
    Diags.error(SourceLoc(), "unknown datatype '" + S.Datatype +
                                 "' (supported: " +
                                 transforms::supportedDatatypes() + ")");
    return false;
  }
  if (!transforms::allowsDatatype(*TI, S.Datatype)) {
    Diags.error(SourceLoc(), "the " + S.Transform + " transform requires " +
                                 std::string(TI->AllowedDatatypes) +
                                 " data (got " + S.Datatype + ")");
    return false;
  }
  if (S.Shape.size() >= 2) {
    if (!TI->SupportsND) {
      Diags.error(SourceLoc(),
                  "the " + S.Transform +
                      " transform does not support multi-dimensional "
                      "shapes (its halfcomplex packing is 1-D)");
      return false;
    }
    if (S.Shape.size() > 8) {
      Diags.error(SourceLoc(), "shapes are limited to 8 dimensions (got " +
                                   std::to_string(S.Shape.size()) + ")");
      return false;
    }
  }
  for (std::int64_t Dim : planDims(S)) {
    if (!TI->ValidSize(Dim, S.MaxLeaf)) {
      std::string Where =
          S.Shape.size() >= 2 ? " (each shape dimension)" : "";
      Diags.error(SourceLoc(), S.Transform + " sizes must be " +
                                   TI->SizeRule + Where + "; got " +
                                   std::to_string(Dim));
      return false;
    }
  }
  return true;
}

std::shared_ptr<Plan> Planner::plan(const PlanSpec &Spec) {
  return plan(Spec, support::Deadline::afterMs(Opts.DeadlineMs));
}

std::optional<Choice> Planner::choose(const PlanSpec &Spec,
                                      const support::Deadline &Deadline,
                                      PlanError *Err) {
  auto Fail = [&](PlanError E) -> std::optional<Choice> {
    if (Err)
      *Err = E;
    return std::nullopt;
  };
  if (Err)
    *Err = PlanError::None;

  PlanSpec S = normalize(Spec);
  if (!validateSpec(S, Diags))
    return Fail(PlanError::InvalidSpec);

  std::call_once(WisdomOnce, [&] {
    if (Opts.UseWisdom)
      Wisdom.load(wisdomPath());
  });

  const transforms::TransformInfo &TI = *transforms::lookup(S.Transform);
  // rdft N (halfcomplex, always 1-D) searches the complex F_{N/2} that
  // gen::ruleRDFT wraps; everything else searches in the spec's own
  // datatype over its own dimensions.
  const bool HalfComplex = TI.IOLayout == transforms::Layout::HalfComplex;
  const std::vector<std::int64_t> Dims = planDims(S);
  const std::vector<std::int64_t> KernelDims =
      HalfComplex ? std::vector<std::int64_t>{S.Size / 2} : Dims;

  Choice C;
  C.Eval = makeEvaluator(HalfComplex ? "complex" : S.Datatype,
                         S.UnrollThreshold);
  C.Eval->setDeadline(Deadline);
  telemetry::StageTimer SearchTimer(telemetry::PlanSearchNs);
  // Multi-dimensional specs plan the row-column algorithm: each dimension
  // is planned independently (reusing per-dimension wisdom) and the winners
  // join as a Kronecker product.
  std::vector<FormulaRef> Parts;
  switch (TI.PlanFamily) {
  case transforms::Family::SearchedFFT: {
    search::SearchOptions SO;
    SO.MaxLeaf = S.MaxLeaf;
    SO.Threads = Opts.SearchThreads;
    SO.Deadline = Deadline;
    // Wisdom for rdft is keyed under "rdft" even though the inner search is
    // over complex F_n factorizations — keys must distinguish the
    // transforms they were recorded for. An entry holds the best F_n for
    // its n, the kernel of rdft 2n.
    SO.Transform = S.Transform;
    search::DPSearch Search(*C.Eval, Diags, SO,
                            Opts.UseWisdom ? &Wisdom : nullptr);
    for (std::int64_t Ni : KernelDims) {
      if (Ni == 1) { // rdft 2: F_1 is a copy; nothing to search.
        Parts.push_back(makeDFT(1));
        continue;
      }
      auto Best = Search.best(Ni);
      if (!Best)
        return Fail(Deadline.expired() ? PlanError::DeadlineExceeded
                                       : PlanError::Failed);
      Parts.push_back(Best->Formula);
      C.Cost += Best->Cost;
    }
    break;
  }
  case transforms::Family::EnumeratedWHT: {
    for (std::int64_t Ni : Dims) {
      PlanSpec DimSpec = S;
      DimSpec.Size = Ni;
      DimSpec.Shape.clear();
      FormulaRef F;
      double Cost = 0;
      if (!chooseWHT(DimSpec, *C.Eval, F, Cost))
        return Fail(Deadline.expired() ? PlanError::DeadlineExceeded
                                       : PlanError::Failed);
      Parts.push_back(F);
      C.Cost += Cost;
    }
    break;
  }
  case transforms::Family::Recursive:
    for (std::int64_t Ni : Dims)
      Parts.push_back(TI.Rule(Ni));
    break;
  }
  C.Formula = HalfComplex ? gen::ruleRDFT(S.Size, std::move(Parts.front()))
                          : tensorOfDims(std::move(Parts));
  C.Evaluations = C.Eval->evaluations();
  return C;
}

std::shared_ptr<Plan> Planner::plan(const PlanSpec &Spec,
                                    const support::Deadline &Deadline,
                                    PlanError *Err) {
  telemetry::StageTimer PlanTimer(telemetry::PlanTotalNs);
  auto Report = [&](PlanError E) {
    if (Err)
      *Err = E;
  };
  Report(PlanError::None);

  // Budget split: the search gets ~70% of whatever remains, the rest stays
  // for compile + trial. The slice shares the cancel token, so cancelling
  // the parent deadline stops the search too. An unbounded deadline slices
  // to unbounded — zero cost on the common path.
  PlanError SearchErr;
  std::optional<Choice> Chosen = choose(Spec, Deadline.slice(0.7), &SearchErr);
  if (!Chosen) {
    // A spent search slice alone is a planning failure; only the plan's
    // own deadline makes it DeadlineExceeded.
    Report(SearchErr == PlanError::InvalidSpec ? PlanError::InvalidSpec
           : Deadline.expired()                ? PlanError::DeadlineExceeded
                                               : PlanError::Failed);
    return nullptr;
  }
  const FormulaRef &Winner = Chosen->Formula;
  search::Evaluator &Eval = *Chosen->Eval;

  const PlanSpec S = normalize(Spec);
  const transforms::TransformInfo &TI = *transforms::lookup(S.Transform);
  const bool Rule = TI.PlanFamily == transforms::Family::Recursive;

  auto P = std::shared_ptr<Plan>(new Plan());
  P->Spec = S;
  P->SubName = subNameFor(S);
  P->Winner = Winner;
  P->FormulaText = Winner->print();
  P->Cost = Chosen->Cost;
  // The I/O shape comes from the spec and the winner, so a plan whose
  // kernel comes from a plan record never needs its program.
  const bool Complex = S.Datatype == "complex";
  P->IOLen = Complex ? 2 * Winner->inSize() : Winner->inSize();
  P->IOLayout = Complex ? Plan::Layout::Interleaved : TI.IOLayout;

  // The program, lowered on first need: a kernel-cache miss, the VM tier,
  // or a rule plan's cost. A failed lowering fails the plan.
  bool LowerFailed = false;
  auto Lowered = [&]() -> const icode::Program * {
    if (P->lower(Diags))
      return &P->Final;
    LowerFailed = true;
    return nullptr;
  };
  // A rule plan's evaluator cost is read off its program, or off the plan
  // record that stored it.
  std::optional<double> RuleCost;
  auto CostRule = [&] {
    if (Rule && !RuleCost)
      if (const icode::Program *Prog = Lowered())
        RuleCost = Eval.cost(*Prog);
  };

  // Walk the degradation chain vector -> native -> vm -> oracle, recording
  // why each tier was skipped. A tier only joins the plan after proving
  // itself.
  std::string Demotions;
  auto Demote = [&](const std::string &Tier, const std::string &Why) {
    if (!Demotions.empty())
      Demotions += "; ";
    Demotions += Tier + ": " + Why;
    (Tier == "vector" ? telemetry::RuntimeDemoteVector
     : Tier == "native" ? telemetry::RuntimeDemoteNative
                        : telemetry::RuntimeDemoteVm)
        .add();
    Diags.note(SourceLoc(), Tier + " backend unavailable for " +
                                P->SubName + " (" + Why + ")");
  };
  bool Placed = false;

  if (S.Want == Backend::Auto || S.Want == Backend::Native) {
    // The kernel-cache plan key of one variant's kernel: "" with the cache
    // off, or in a build without a build-id.
    auto PlanKeyOf = [&](const perf::KernelBuildOptions &BO) {
      if (!perf::KernelCache::enabled())
        return std::string();
      perf::KernelCache::PlanKeyInputs In;
      In.FormulaText = P->FormulaText;
      In.SubName = P->SubName;
      In.Datatype = S.Datatype;
      In.UnrollThreshold = S.UnrollThreshold;
      In.Evaluator = Eval.kindName();
      In.Variant = codegen::variantName(BO.Variant);
      In.ISA = codegen::isaName(codegen::detectISA());
      In.Flags = perf::CompiledKernel::compilerFlags(BO);
      In.Compiler = perf::NativeModule::compilerIdentity();
      In.Host = HostInfo::fingerprint();
      In.BuildId = perf::KernelCache::buildId();
      return perf::KernelCache::planKey(In);
    };
    // Builds (and, when configured, trial-proves) one kernel variant. A
    // kernel-cache plan record supplies the kernel without lowering; on a
    // miss the program is lowered and compiled, and a kernel that proves
    // itself gets its record written.
    auto Build = [&](codegen::CodegenVariant V, perf::KernelError &Err)
        -> std::unique_ptr<perf::CompiledKernel> {
      perf::KernelBuildOptions BO;
      BO.ThreadSafe = true; // Batch dispatch runs one kernel on many threads.
      BO.Variant = V;
      BO.Deadline = Deadline; // Compile runs under the remaining budget.
      const std::string Key = PlanKeyOf(BO);
      std::unique_ptr<perf::CompiledKernel> K;
      if (auto Record = perf::KernelCache::probePlan(Key)) {
        if (Rule)
          RuleCost = Record->Cost;
        K = perf::CompiledKernel::load(std::move(*Record), P->SubName,
                                       P->IOLen, V, &Err);
      }
      const bool FromRecord = K != nullptr;
      if (!K) {
        const icode::Program *Prog = Lowered();
        if (!Prog) {
          Err = perf::KernelError{perf::KernelErrorKind::CompileFailed,
                                  "lowering failed"};
          return nullptr;
        }
        K = perf::CompiledKernel::create(*Prog, &Err, BO);
      }
      if (K) {
        // Every kernel is proven by a trial run in the trial runner, which
        // gets min(SPL_TRIAL_TIMEOUT_MS, remaining). An unproven kernel
        // never joins the plan, so a spent budget demotes to the VM tier
        // rather than skipping the proof.
        double TrialBudget = trialTimeoutSeconds();
        const double Remaining = Deadline.remainingSeconds();
        if (Remaining <= 0) {
          Err = perf::KernelError{
              perf::KernelErrorKind::TrialFailed,
              "trial execution skipped: the planning deadline is spent"};
          K.reset();
          return K;
        }
        if (std::isfinite(Remaining))
          TrialBudget = std::min(TrialBudget, Remaining);
        perf::CompiledKernel::TrialResult Trial;
        {
          telemetry::StageTimer TrialTimer(telemetry::PlanTrialNs);
          Trial = K->trial(TrialBudget);
        }
        if (!Trial.Ok) {
          Err = perf::KernelError{perf::KernelErrorKind::TrialFailed,
                                  Trial.Reason};
          K.reset();
        } else if (!FromRecord) {
          CostRule();
          perf::KernelCache::insertPlan(Key, K->cacheKey(), K->tables(),
                                        RuleCost);
        }
      }
      return K;
    };

    perf::KernelError KErr;
    std::unique_ptr<perf::CompiledKernel> Kernel;
    if (S.Codegen == CodegenMode::Vector) {
      if (!codegen::vectorBackendAvailable()) {
        Demote("vector", "no SIMD ISA on this host (probe reports scalar)");
      } else {
        perf::KernelError VErr;
        Kernel = Build(codegen::CodegenVariant::Vector, VErr);
        if (!Kernel)
          Demote("vector", VErr.str());
      }
    }
    if (!Kernel) {
      Kernel = Build(codegen::CodegenVariant::Scalar, KErr);
      // Auto codegen under the timed native cost model races the winner's
      // vector kernel against its scalar one, per transform, and keeps the
      // faster. A vector kernel that fails to build or prove itself loses
      // the race; nothing demotes.
      if (Kernel && S.Codegen == CodegenMode::Auto &&
          std::string_view(Eval.kindName()) == "nativetime" &&
          codegen::vectorBackendAvailable()) {
        perf::KernelError VErr;
        auto Vec = Build(codegen::CodegenVariant::Vector, VErr);
        if (!Vec)
          Diags.note(SourceLoc(), "vector kernel for " + P->SubName +
                                      " lost the codegen race (" +
                                      VErr.str() + ")");
        if (Vec && Vec->time(TimingRepeats) / Vec->lanes() <
                       Kernel->time(TimingRepeats)) {
          Kernel = std::move(Vec);
          telemetry::PlanVectorWins.add();
        } else {
          telemetry::PlanScalarWins.add();
        }
      }
    }
    if (LowerFailed) {
      Report(PlanError::Failed);
      return nullptr;
    }
    if (Kernel) {
      P->Native = std::move(Kernel);
      P->Resolved = Backend::Native;
      P->Lanes = P->Native->lanes();
      Placed = true;
    } else {
      Demote("native", KErr.str());
    }
  }

  if (!Placed && S.Want != Backend::Oracle) {
    // Prove the interpreter on this program once: one in-process run on
    // zero input must produce finite output (the VM cannot take the
    // process down the way a bad native kernel can).
    std::string VMErr;
    const icode::Program *Prog = Lowered();
    if (!Prog) {
      Report(PlanError::Failed);
      return nullptr;
    }
    if (fault::at("vm-exec")) {
      VMErr = fault::describe("vm-exec");
    } else {
      vm::Executor VM(*Prog);
      std::vector<double> In(static_cast<size_t>(VM.inputLen()), 0.0);
      std::vector<double> Out(static_cast<size_t>(VM.outputLen()), 0.0);
      VM.runReal(In.data(), Out.data());
      for (double V : Out)
        if (!std::isfinite(V)) {
          VMErr = "interpreted program produced non-finite output";
          break;
        }
    }
    if (VMErr.empty()) {
      P->Resolved = Backend::VM;
      Placed = true;
    } else {
      Demote("vm", VMErr);
    }
  }

  if (!Placed) {
    // Last tier: the dense matrix the winner denotes. O(N^2) per transform
    // and O(N^2) doubles of storage, so capped.
    constexpr std::int64_t OracleSizeCap = 4096;
    if (S.Size > OracleSizeCap || !Winner->hasDenseSemantics()) {
      Diags.error(SourceLoc(),
                  "no usable backend for " + P->SubName +
                      (Demotions.empty() ? std::string()
                                         : " (" + Demotions + ")") +
                      "; the dense oracle tier " +
                      (S.Size > OracleSizeCap
                           ? "is capped at size " +
                                 std::to_string(OracleSizeCap)
                           : std::string(
                                 "needs a formula with dense semantics")));
      Report(PlanError::Failed);
      return nullptr;
    }
    P->OracleMat = Winner->toMatrix();
    P->Resolved = Backend::Oracle;
  }

  if (!Demotions.empty()) {
    P->Fallback = true;
    P->FallbackReason = Demotions;
    Diags.note(SourceLoc(), "plan for " + P->SubName + " degraded to the " +
                                std::string(backendName(P->Resolved)) +
                                " backend");
  }

  if (Rule) {
    CostRule();
    if (LowerFailed) {
      Report(PlanError::Failed);
      return nullptr;
    }
    if (RuleCost)
      P->Cost = *RuleCost;
  }

  // A plan finished after its deadline expired is a degraded artifact:
  // search was truncated and/or the native tier was skipped. Mark it so
  // PlanRegistry declines to memoize it for unpressured callers.
  P->Pressured = Deadline.expired();

  // Pre-warm one execution context: validates the program in the VM case
  // and sizes the aligned staging, so the first execute() is allocation-free.
  P->releaseCtx(P->acquireCtx());
  return P;
}
