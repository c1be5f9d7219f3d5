//===- runtime/Plan.cpp - Executable transform plans --------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Plan.h"

#include "driver/Compiler.h"
#include "support/ThreadPool.h"
#include "telemetry/Trace.h"
#include "transforms/Registry.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace spl;
using namespace spl::runtime;

const char *spl::runtime::backendName(Backend B) {
  switch (B) {
  case Backend::Auto:
    return "auto";
  case Backend::VM:
    return "vm";
  case Backend::Native:
    return "native";
  case Backend::Oracle:
    return "oracle";
  }
  return "unknown";
}

bool spl::runtime::parseBackend(const std::string &Name, Backend &Out) {
  if (Name == "auto")
    Out = Backend::Auto;
  else if (Name == "vm")
    Out = Backend::VM;
  else if (Name == "native")
    Out = Backend::Native;
  else if (Name == "oracle")
    Out = Backend::Oracle;
  else
    return false;
  return true;
}

const char *spl::runtime::codegenModeName(CodegenMode M) {
  switch (M) {
  case CodegenMode::Auto:
    return "auto";
  case CodegenMode::Scalar:
    return "scalar";
  case CodegenMode::Vector:
    return "vector";
  }
  return "unknown";
}

bool spl::runtime::parseCodegenMode(const std::string &Name, CodegenMode &Out) {
  if (Name == "auto")
    Out = CodegenMode::Auto;
  else if (Name == "scalar")
    Out = CodegenMode::Scalar;
  else if (Name == "vector")
    Out = CodegenMode::Vector;
  else
    return false;
  return true;
}

std::string PlanSpec::key() const {
  std::string Type = Datatype;
  if (Type.empty()) {
    const transforms::TransformInfo *TI = transforms::lookup(Transform);
    Type = TI ? TI->NaturalDatatype : "complex";
  }
  std::ostringstream SS;
  SS << Transform << " " << Size << " " << Type << " B" << UnrollThreshold
     << " L" << MaxLeaf << " " << backendName(Want) << " "
     << codegenModeName(Codegen);
  // Multi-dimensional shapes get a suffix so "fft 1024" (1-D) and
  // "fft 32x32" (row-column) never share a registry slot; 1-D keys are
  // byte-identical to what they were before shapes existed.
  if (Shape.size() >= 2) {
    SS << " S";
    for (size_t I = 0; I != Shape.size(); ++I)
      SS << (I ? "x" : "") << Shape[I];
  }
  return SS.str();
}

bool Plan::lower(Diagnostics &Diags) const {
  std::call_once(FinalOnce, [&] {
    driver::Compiler Compiler(Diags);
    driver::CompilerOptions CO;
    CO.UnrollThreshold = Spec.UnrollThreshold;
    CO.EmitCode = false; // Plans hold i-code; the backends render on demand.
    DirectiveState Dirs;
    Dirs.SubName = SubName;
    Dirs.Datatype = Spec.Datatype;
    Dirs.Language = "c";
    if (auto Unit = Compiler.compileFormula(Winner, Dirs, CO)) {
      Final = std::move(Unit->Final);
      FinalOk = true;
    }
  });
  return FinalOk;
}

const icode::Program &Plan::program() const {
  // The same lowering built this plan's kernel, here or in the planner
  // that wrote its plan record, so it does not fail here.
  Diagnostics Diags;
  lower(Diags);
  return Final;
}

std::unique_ptr<Plan::ExecCtx> Plan::acquireCtx() {
  {
    std::lock_guard<std::mutex> Lock(CtxM);
    if (!FreeCtxs.empty()) {
      auto Ctx = std::move(FreeCtxs.back());
      FreeCtxs.pop_back();
      return Ctx;
    }
  }
  auto Ctx = std::make_unique<ExecCtx>();
  if (Resolved == Backend::VM)
    Ctx->VM = std::make_unique<vm::Executor>(program());
  Ctx->StageX.resize(static_cast<std::size_t>(IOLen) * Lanes);
  Ctx->StageY.resize(static_cast<std::size_t>(IOLen) * Lanes);
  return Ctx;
}

void Plan::releaseCtx(std::unique_ptr<ExecCtx> Ctx) {
  std::lock_guard<std::mutex> Lock(CtxM);
  FreeCtxs.push_back(std::move(Ctx));
}

void Plan::applyOracle(double *Y, const double *X) const {
  // The input is fully read into a complex vector before Y is written, so
  // in-place calls (Y == X) need no scratch on this tier. The oracle
  // matrix is the winner's: interleaved complex pairs for Interleaved
  // plans, real-in/real-out otherwise (an rdft winner's matrix is the
  // entrywise-real rdft matrix, already in halfcomplex order).
  const size_t N = OracleMat.cols();
  std::vector<Cplx> In(N);
  if (IOLayout == Layout::Interleaved) {
    for (size_t I = 0; I != N; ++I)
      In[I] = Cplx(X[2 * I], X[2 * I + 1]);
    std::vector<Cplx> Out = OracleMat.apply(In);
    for (size_t I = 0; I != Out.size(); ++I) {
      Y[2 * I] = Out[I].real();
      Y[2 * I + 1] = Out[I].imag();
    }
    return;
  }
  for (size_t I = 0; I != N; ++I)
    In[I] = Cplx(X[I], 0.0);
  std::vector<Cplx> Out = OracleMat.apply(In);
  for (size_t I = 0; I != Out.size(); ++I)
    Y[I] = Out[I].real();
}

void Plan::runKernel(ExecCtx &Ctx, double *KY, const double *KX) {
  if (Resolved == Backend::Native)
    Native->run(KY, KX);
  else if (Resolved == Backend::VM)
    Ctx.VM->runReal(KX, KY);
  else
    applyOracle(KY, KX);
}

namespace {
/// The deadline-free entry points share one unbounded deadline: a fresh
/// Deadline allocates its cancel token.
const support::Deadline &unbounded() {
  static const support::Deadline D;
  return D;
}
} // namespace

void Plan::execute(double *Y, const double *X) {
  run(Y, X, BatchLayout(), unbounded(), 1, /*Single=*/true);
}

void Plan::executeBatch(double *Y, const double *X, std::int64_t Count,
                        int Threads) {
  BatchLayout L;
  L.HowMany = Count;
  run(Y, X, L, unbounded(), Threads, /*Single=*/false);
}

ExecStatus Plan::executeBatch(double *Y, const double *X, const BatchLayout &L,
                              const support::Deadline &DL, int Threads) {
  return run(Y, X, L, DL, Threads, /*Single=*/false);
}

ExecStatus Plan::run(double *Y, const double *X, const BatchLayout &L,
                     const support::Deadline &DL, int Threads, bool Single) {
  assert(L.StrideX >= 1 && L.StrideY >= 1 && "element strides must be >= 1");
  const std::int64_t Count = L.HowMany;
  if (Count <= 0)
    return ExecStatus::Ok;
  // Disarmed, telemetry costs this one relaxed load of the mask; armed, the
  // whole call is one sample/span.
  const unsigned Mask = telemetry::armedMask();
  const std::uint64_t Start = Mask ? telemetry::traceNowNs() : 0;

  const std::int64_t M = Lanes, N = IOLen;
  const std::int64_t SX = L.StrideX, SY = L.StrideY;
  const std::int64_t DX = L.DistX ? L.DistX : (N - 1) * SX + 1;
  const std::int64_t DY = L.DistY ? L.DistY : (N - 1) * SY + 1;
  // Direct access per side. A scalar kernel reads a dense user X in place:
  // it writes staging or a distinct Y, so in-place calls stay safe. It
  // writes user Y only when Y is dense and distinct from X (the generated
  // kernels are out-of-place: y and x are restrict-qualified).
  const bool DirectX = M == 1 && SX == 1;
  const bool DirectY = M == 1 && SY == 1 && Y != X;
  const bool Timed = (Mask & telemetry::kMetrics) != 0;

  // One lane group: load -> kernel -> store for vectors V .. V+K-1.
  auto RunGroup = [&](ExecCtx &Ctx, std::int64_t V) {
    const std::uint64_t T0 = Timed ? telemetry::traceNowNs() : 0;
    const std::int64_t K = std::min(M, Count - V);
    const double *XV = X + V * DX;
    double *YV = Y + V * DY;
    double *PX = Ctx.StageX.data();
    double *PY = Ctx.StageY.data();
    // The staging feeds vector kernels' aligned SIMD loads directly, so
    // its alignment is a correctness contract, not a fast-path hint.
    assert(reinterpret_cast<std::uintptr_t>(PX) % AlignedBuffer::Alignment ==
               0 &&
           reinterpret_cast<std::uintptr_t>(PY) % AlignedBuffer::Alignment ==
               0 &&
           "lane staging buffers must be AlignedBuffer-aligned");
    const double *KX = DirectX ? XV : PX;
    double *KY = DirectY ? YV : PY;
    if (!DirectX) {
      // Load into slot-major staging: double s of lane j lives at s*M + j,
      // so the M lanes of one slot are the contiguous group the kernel's
      // SIMD loads expect. Tail lanes are zero-filled; lanes never mix, so
      // the padding is inert. Every input is read before the kernel writes,
      // which makes Y == X safe.
      for (std::int64_t J = 0; J != M; ++J) {
        double *P = PX + J;
        if (J >= K) {
          for (std::int64_t S = 0; S != N; ++S)
            P[S * M] = 0.0;
        } else {
          const double *XJ = XV + J * DX;
          for (std::int64_t S = 0; S != N; ++S)
            P[S * M] = XJ[S * SX];
        }
      }
    }
    const std::uint64_t T1 = Timed ? telemetry::traceNowNs() : 0;
    runKernel(Ctx, KY, KX);
    const std::uint64_t T2 = Timed ? telemetry::traceNowNs() : 0;
    // Store: unpack each live lane.
    if (!DirectY) {
      for (std::int64_t J = 0; J != K; ++J) {
        const double *P = PY + J;
        double *YJ = YV + J * DY;
        for (std::int64_t S = 0; S != N; ++S)
          YJ[S * SY] = P[S * M];
      }
    }
    if (Timed) {
      telemetry::RuntimeKernelNs.recordAlways(T2 - T1);
      telemetry::RuntimeStageNs.recordAlways(telemetry::traceNowNs() - T2 +
                                             (T1 - T0));
    }
  };

  // One contiguous chunk of lane groups per runner: coarse-grained enough
  // that dispatch never becomes the bottleneck, and each runner touches a
  // disjoint slice of the batch. Lane independence keeps every vector's bits
  // the same whatever its group-mates (or padding) are.
  const std::int64_t Groups = (Count + M - 1) / M;
  const std::int64_t T = std::clamp<std::int64_t>(Threads, 1, Groups);
  const std::int64_t Chunk = (Groups + T - 1) / T;

  // Cooperative cancellation: the deadline is checked before each lane
  // group, never inside one, so every vector that runs at all produces
  // exactly the bits an unpressured run would, and skipped groups leave
  // their output untouched. One runner noticing expiry stops the others at
  // their next group through the shared flag.
  std::atomic<bool> Stop{false};
  parallelFor(static_cast<size_t>(T), static_cast<int>(T), [&](size_t J) {
    const std::int64_t Lo = static_cast<std::int64_t>(J) * Chunk;
    const std::int64_t Hi = std::min(Groups, Lo + Chunk);
    if (Lo >= Hi)
      return;
    auto Ctx = acquireCtx();
    for (std::int64_t G = Lo; G != Hi; ++G) {
      if (Stop.load(std::memory_order_relaxed) || DL.expired()) {
        Stop.store(true, std::memory_order_relaxed);
        break;
      }
      RunGroup(*Ctx, G * M);
    }
    releaseCtx(std::move(Ctx));
  });

  if (Mask != 0) {
    const std::uint64_t Dur = telemetry::traceNowNs() - Start;
    if ((Mask & telemetry::kMetrics) && Single) {
      telemetry::RuntimeExecutes.add();
      telemetry::RuntimeExecuteNs.recordAlways(Dur);
    } else if (Mask & telemetry::kMetrics) {
      // Every executeBatch form lands here: dense, strided, deadline-bearing.
      telemetry::RuntimeBatches.add();
      telemetry::RuntimeBatchVectors.add(static_cast<std::uint64_t>(Count));
      telemetry::RuntimeBatchNs.recordAlways(Dur);
    }
    if (Mask & telemetry::kTrace)
      telemetry::Tracer::instance().record(Single ? "execute" : "executeBatch",
                                           Start, Dur);
  }
  if (!Stop.load(std::memory_order_relaxed))
    return ExecStatus::Ok; // Expiry after the last group still counts as Ok.
  telemetry::RuntimeDeadlineExceeded.add();
  return ExecStatus::DeadlineExceeded;
}

std::string Plan::describe() const {
  std::ostringstream SS;
  SS << Spec.Transform << " ";
  if (Spec.Shape.size() >= 2)
    for (size_t I = 0; I != Spec.Shape.size(); ++I)
      SS << (I ? "x" : "") << Spec.Shape[I];
  else
    SS << Spec.Size;
  SS << ": backend " << backendName(Resolved);
  if (IOLayout == Layout::HalfComplex)
    SS << " (halfcomplex)";
  if (Lanes > 1)
    SS << " (vector, " << Lanes << " lanes)";
  if (Fallback)
    SS << " (fell back: " << FallbackReason << ")";
  SS << ", " << IOLen << " doubles/vector, search cost " << Cost
     << ", formula " << FormulaText;
  return SS.str();
}
