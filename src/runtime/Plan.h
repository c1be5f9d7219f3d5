//===- runtime/Plan.h - Executable transform plans --------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The FFTW-style execute half of the runtime layer. A Plan is the
/// materialized end product of the paper's generate-search-time loop: one
/// searched, compiled transform, ready to apply to data — as natively
/// compiled machine code (perf::CompiledKernel), on the portable i-code VM
/// (vm::Executor), or — last resort — as a dense matrix-vector product.
/// The tier is chosen at plan time by runtime::Planner's degradation chain
/// (native -> vm -> oracle); see docs/RELIABILITY.md.
///
/// Plans are built by runtime::Planner, shared through runtime::PlanRegistry,
/// and applied with execute() (one vector) or executeBatch() (many vectors,
/// dense or FFTW-advanced strided, sharded across a worker pool). All three
/// entry points wrap one core that runs every layout through the same
/// pipeline per lane group: load (strided gather, lane pack) -> kernel ->
/// store (unpack, strided scatter). Each side is staged only when it must
/// be: a scalar kernel reads a dense user X in place, and writes a dense,
/// distinct user Y in place.
///
/// The kernel computes the whole transform in the user layout on every
/// tier. rdft N's winner is the real formula S_N realify(F_{N/2})
/// (gen::ruleRDFT), so its kernel reads N reals and writes the N
/// halfcomplex doubles like any other real plan.
///
/// Plans are thread-safe: worker state (a VM instance plus aligned staging)
/// lives in a checkout pool of contexts, so concurrent callers never share
/// mutable state.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_RUNTIME_PLAN_H
#define SPL_RUNTIME_PLAN_H

#include "icode/ICode.h"
#include "ir/Formula.h"
#include "ir/Matrix.h"
#include "perf/KernelRunner.h"
#include "runtime/AlignedBuffer.h"
#include "support/Deadline.h"
#include "transforms/Registry.h"
#include "vm/Executor.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace spl {
class Diagnostics;
namespace runtime {

/// Which execution substrate a plan should (or does) use.
enum class Backend {
  Auto,   ///< Prefer native, fall back to the VM (request only).
  VM,     ///< Interpret i-code (always available).
  Native, ///< Natively compiled C; falls back to VM if compilation fails.
  Oracle, ///< Dense matrix-vector product — the last degradation tier.
};

/// Stable lowercase token ("auto" | "vm" | "native" | "oracle").
const char *backendName(Backend B);

/// Parses a backend token; returns false on an unknown name.
bool parseBackend(const std::string &Name, Backend &Out);

/// Which codegen variant a plan should use for its native kernel (the
/// --codegen flag). Orthogonal to Backend: Backend picks the execution
/// substrate, CodegenMode picks what the native substrate's kernel looks
/// like.
enum class CodegenMode {
  Auto,   ///< Scalar; under the nativetime evaluator the planner times
          ///< the winner's scalar and vector kernels and keeps the faster.
  Scalar, ///< Force plain C (one transform per kernel call).
  Vector, ///< Force the SIMD backend; demotes to scalar if it cannot run.
};

/// Stable lowercase token ("auto" | "scalar" | "vector").
const char *codegenModeName(CodegenMode M);

/// Parses a codegen-mode token; returns false on an unknown name.
bool parseCodegenMode(const std::string &Name, CodegenMode &Out);

/// Everything that identifies a plan. Two specs with equal key() are
/// interchangeable and PlanRegistry will hand out one shared Plan for them.
struct PlanSpec {
  std::string Transform = "fft"; ///< A transforms::Registry name.
  std::int64_t Size = 0;         ///< Total transform size N (product of
                                 ///< Shape when multi-dimensional).

  /// Row-major N-D shape for row-column plans. Empty (or one entry equal
  /// to Size) means 1-D; {N1, N2} plans the separable transform
  /// M_{N1} (x) M_{N2} over row-major data.
  std::vector<std::int64_t> Shape;

  /// "complex" | "real"; empty picks the transform's natural type from the
  /// registry (fft: complex; wht, rdft, dct2/3/4: real).
  std::string Datatype;

  /// The -B threshold candidates compile under.
  std::int64_t UnrollThreshold = 16;

  /// Largest straight-line sub-transform in the search space.
  std::int64_t MaxLeaf = 16;

  /// Requested substrate.
  Backend Want = Backend::Auto;

  /// Requested codegen variant for the native kernel (--codegen).
  CodegenMode Codegen = CodegenMode::Auto;

  /// Canonical registry key, e.g. "fft 1024 complex B16 L16 auto auto"
  /// (multi-dimensional specs append " S<N1>x<N2>...").
  std::string key() const;
};

/// FFTW-"advanced"-interface data layout for strided/batched execution.
/// Strides and dists are in doubles over the plan's vectorLen() doubles:
/// double s of vector v reads from X[v * DistX + s * StrideX] (for complex
/// plans the k-th point's re/im therefore sit at 2k*Stride and
/// (2k+1)*Stride). A Dist of 0 means densely packed back-to-back given the
/// stride, i.e. (vectorLen()-1)*Stride + 1. The addressed elements of
/// distinct vectors must not overlap (interleaved layouts such as
/// Stride = HowMany, Dist = 1 are fine).
struct BatchLayout {
  std::int64_t HowMany = 1;  ///< Number of vectors.
  std::int64_t StrideX = 1;  ///< Input element stride, >= 1.
  std::int64_t DistX = 0;    ///< Input vector-to-vector distance.
  std::int64_t StrideY = 1;  ///< Output element stride, >= 1.
  std::int64_t DistY = 0;    ///< Output vector-to-vector distance.
};

/// Outcome of a deadline-bearing batch. Execution is all-or-nothing per
/// lane group (a vector is never half-written), but a batch cancelled
/// mid-flight leaves untouched output slots for the vectors it skipped.
enum class ExecStatus {
  Ok,               ///< Every requested vector was computed.
  DeadlineExceeded, ///< The deadline expired; remaining vectors were skipped.
};

/// An executable transform plan: y = Mx for the searched winner M.
///
/// Buffers are raw double arrays. For complex transforms (LoweredToReal),
/// a logical vector of N complex points occupies vectorLen() == 2N doubles
/// as interleaved (re,im) pairs; real transforms use N doubles.
class Plan {
public:
  /// User-facing I/O layout: Interleaved complex pairs, plain real, or
  /// real-in/halfcomplex-out (rdft).
  using Layout = transforms::Layout;

  const PlanSpec &spec() const { return Spec; }

  /// The layout of one user-facing vector of vectorLen() doubles.
  Layout layout() const { return IOLayout; }

  /// The substrate this plan actually runs on — the tier the degradation
  /// chain vector -> native -> vm -> oracle landed on (never Auto).
  Backend backend() const { return Resolved; }

  /// The codegen variant of the native kernel (Scalar off the native tier).
  codegen::CodegenVariant codegenVariant() const {
    return Native ? Native->variant() : codegen::CodegenVariant::Scalar;
  }

  /// Transform columns per native kernel call: 1 for scalar kernels,
  /// the SIMD lane count for vector kernels. Batches are cut into lane
  /// groups internally; callers never see the staging layout.
  int lanes() const { return Lanes; }

  /// Logical transform size N.
  std::int64_t size() const { return Spec.Size; }

  /// Doubles per input/output vector (2N for complex data, N for real).
  std::int64_t vectorLen() const { return IOLen; }

  /// The winning formula in SPL syntax (wisdom serialization format).
  const std::string &formulaText() const { return FormulaText; }

  /// The winning formula itself; lets callers build an independent dense
  /// oracle (Formula::toMatrix) to verify the plan's output.
  const FormulaRef &formula() const { return Winner; }

  /// The winner's search cost (units depend on the planner's evaluator).
  double searchCost() const { return Cost; }

  /// True when the plan runs on a lower tier than requested (the
  /// degradation chain demoted it); fallbackReason() accumulates why.
  bool usedFallback() const { return Fallback; }
  const std::string &fallbackReason() const { return FallbackReason; }

  /// True when the plan was built after its planning deadline had already
  /// expired — it works, but search and/or the native tier were truncated.
  /// PlanRegistry refuses to memoize pressured plans so an unpressured
  /// caller can rebuild the full-quality plan later.
  bool deadlinePressured() const { return Pressured; }

  /// The compiled i-code (shared with every VM worker context). Built on
  /// first use, once and thread-safely: a plan whose native kernel came
  /// from a kernel-cache plan record never lowered its formula, and lowers
  /// it here only when a caller or a VM demotion asks.
  const icode::Program &program() const;

  /// Applies the plan to one vector: Y = M X (a batch of one). Thread-safe;
  /// Y == X runs in place through the staging buffers. Partial overlap is
  /// undefined.
  void execute(double *Y, const double *X);

  /// Applies the plan to \p Count densely packed vectors (vector i at
  /// X + i*vectorLen()); the BatchLayout overload with an unbounded
  /// deadline.
  void executeBatch(double *Y, const double *X, std::int64_t Count,
                    int Threads = 1);

  /// FFTW-advanced-style strided/batched execute (see BatchLayout). With
  /// Threads > 1 the batch's lane groups are cut into one contiguous chunk
  /// per parallelFor runner; results are bit-identical for every thread
  /// count and layout, since each vector is computed by exactly the same
  /// code whichever runner and lane group it lands in.
  ///
  /// \p DL is checked cooperatively before each lane group (each worker
  /// also watches a shared stop flag); once it expires no new group
  /// starts. Vectors already computed keep their results and skipped
  /// output elements are left untouched. Returns DeadlineExceeded (and
  /// bumps runtime.deadline_exceeded) when any vector was skipped; an
  /// unbounded deadline costs one relaxed atomic load per group.
  ///
  /// Thread-safe; concurrent batches, multi-threaded or not, never block
  /// each other. A single-threaded call never touches the pool.
  ExecStatus executeBatch(double *Y, const double *X, const BatchLayout &L,
                          const support::Deadline &DL = support::Deadline(),
                          int Threads = 1);

  /// One-line human description ("fft 1024: native, 2048 doubles/vector,
  /// ...").
  std::string describe() const;

private:
  friend class Planner;
  Plan() = default;

  /// Per-worker execution state: a VM instance (VM backend only; the native
  /// kernel is reentrant and shared) plus the slot-major kernel-facing
  /// staging, Lanes * IOLen doubles each, sized when the plan is built.
  struct ExecCtx {
    std::unique_ptr<vm::Executor> VM;
    AlignedBuffer StageX, StageY;
  };

  std::unique_ptr<ExecCtx> acquireCtx();
  void releaseCtx(std::unique_ptr<ExecCtx> Ctx);

  /// The one execute core behind all three entry points: telemetry, lane
  /// grouping, staging, deadline checks and thread dispatch. \p Single
  /// selects execute()'s metrics over executeBatch()'s.
  ExecStatus run(double *Y, const double *X, const BatchLayout &L,
                 const support::Deadline &DL, int Threads, bool Single);

  /// Lowers the winner into Final on the first call (reporting into
  /// \p Diags); false when lowering failed.
  bool lower(Diagnostics &Diags) const;

  /// Runs the tier's kernel on one kernel-facing lane group.
  void runKernel(ExecCtx &Ctx, double *KY, const double *KX);
  void applyOracle(double *Y, const double *X) const;

  PlanSpec Spec;
  Backend Resolved = Backend::VM;
  std::string SubName; ///< The kernel's entry point ("fft1024").
  mutable std::once_flag FinalOnce;
  mutable icode::Program Final; ///< Written once, under FinalOnce.
  mutable bool FinalOk = false;
  std::unique_ptr<perf::CompiledKernel> Native; ///< Null off the native tier.
  Matrix OracleMat; ///< Dense winner matrix (oracle tier only).
  FormulaRef Winner;
  std::string FormulaText;
  double Cost = 0;
  bool Fallback = false;
  bool Pressured = false; ///< Built after its planning deadline expired.
  std::string FallbackReason;
  std::int64_t IOLen = 0; ///< Doubles per vector, user- and kernel-facing.
  Layout IOLayout = Layout::Interleaved;
  int Lanes = 1; ///< Native->lanes() for vector kernels, else 1.

  std::mutex CtxM;
  std::vector<std::unique_ptr<ExecCtx>> FreeCtxs;
};

} // namespace runtime
} // namespace spl

#endif // SPL_RUNTIME_PLAN_H
