//===- perfbench/src/Bench.cpp - Shared benchmark machinery ---------------===//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "codegen/CEmitter.h"
#include "codegen/VectorEmitter.h"
#include "driver/Compiler.h"
#include "gen/Enumerate.h"
#include "ir/Builder.h"
#include "ir/Transforms.h"
#include "perf/KernelCache.h"
#include "perf/MemoryModel.h"
#include "search/DPSearch.h"
#include "search/Evaluator.h"
#include "telemetry/Metrics.h"
#include "transforms/Registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <sys/resource.h>

using namespace spl;

namespace perfbench {

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Pos = Q * double(V.size() - 1);
  const std::size_t Lo = static_cast<std::size_t>(std::floor(Pos));
  const std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(std::max(X, 1e-300));
  return std::exp(LogSum / double(V.size()));
}

double SampleSet::geomeanOf(double Q) const {
  std::vector<double> Per;
  for (const auto &[Key, V] : S)
    Per.push_back(quantile(V, Q));
  return geomean(Per);
}

double SampleSet::sumOfMedians() const {
  double Total = 0;
  for (const auto &[Key, V] : S)
    Total += median(V);
  return Total;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

namespace {
thread_local std::vector<int> OpenSpans;

double usBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::micro>(B - A).count();
}
} // namespace

Tracer::Tracer(bool Traced) : Traced(Traced), Recording(Traced) {}

void Tracer::setRecording(bool On) {
  if (!Traced)
    return;
  ++Generation; // Odd while the switch is under way.
  Recording = On;
  telemetry::setMetricsEnabled(On);
  ++Generation;
}

Tracer::Scope::Scope(Tracer &T, const char *Name)
    : T(T), Name(Name), Start(Clock::now()) {
  if (!T.Recording.load(std::memory_order_relaxed))
    return;
  std::lock_guard<std::mutex> L(T.M);
  Parent = OpenSpans.empty() ? -1 : OpenSpans.back();
  Index = static_cast<int>(T.Spans.size());
  T.Spans.push_back(
      {Name, usBetween(T.Epoch, Start), 0, Parent,
       std::hash<std::thread::id>()(std::this_thread::get_id())});
  OpenSpans.push_back(Index);
}

double Tracer::Scope::stop() {
  if (Ms >= 0)
    return Ms;
  const Clock::time_point End = Clock::now();
  Ms = std::chrono::duration<double, std::milli>(End - Start).count();
  if (Index >= 0) {
    std::lock_guard<std::mutex> L(T.M);
    T.Spans[Index].EndUs = usBetween(T.Epoch, End);
    OpenSpans.pop_back();
  }
  return Ms;
}

std::map<std::string, double> Tracer::selfTimes() const {
  std::lock_guard<std::mutex> L(M);
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildUs[S.Parent] += S.EndUs - S.StartUs;
  std::map<std::string, double> Self;
  for (std::size_t I = 0; I != Spans.size(); ++I)
    Self[Spans[I].Name] +=
        (Spans[I].EndUs - Spans[I].StartUs - ChildUs[I]) / 1000.0;
  return Self;
}

bool Tracer::write(const std::string &Path) const {
  std::lock_guard<std::mutex> L(M);
  std::ofstream OS(Path);
  OS << "[";
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"name\":\"" << S.Name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << (S.Thread % 100000)
       << ",\"ts\":" << S.StartUs << ",\"dur\":" << (S.EndUs - S.StartUs)
       << ",\"args\":{\"id\":" << I << ",\"parent\":" << S.Parent << "}}";
  }
  OS << "\n]\n";
  return static_cast<bool>(OS);
}

//===----------------------------------------------------------------------===//
// Outcome
//===----------------------------------------------------------------------===//

void Outcome::attempt(std::int64_t N) {
  std::lock_guard<std::mutex> L(M);
  Attempted += N;
}

void Outcome::fail(const std::string &Why) {
  std::lock_guard<std::mutex> L(M);
  if (++Failed <= 10)
    std::cerr << "perfbench: failed op: " << Why << "\n";
}

void Outcome::metric(const std::string &Name, double Value,
                     const std::string &Unit) {
  std::lock_guard<std::mutex> L(M);
  Metrics.push_back({Name, Value, Unit});
}

void Outcome::note(const std::string &Line) {
  std::lock_guard<std::mutex> L(M);
  Notes.push_back(Line);
}

//===----------------------------------------------------------------------===//
// Specs and inputs
//===----------------------------------------------------------------------===//

std::int64_t totalSize(const runtime::PlanSpec &S) {
  if (S.Shape.empty())
    return S.Size;
  std::int64_t N = 1;
  for (std::int64_t D : S.Shape)
    N *= D;
  return N;
}

namespace {
bool complexData(const runtime::PlanSpec &S) {
  if (!S.Datatype.empty())
    return S.Datatype == "complex";
  const transforms::TransformInfo *TI = transforms::lookup(S.Transform);
  return TI && std::string(TI->NaturalDatatype) == "complex";
}
} // namespace

std::int64_t vectorLen(const runtime::PlanSpec &S) {
  return (complexData(S) ? 2 : 1) * totalSize(S);
}

double pseudoFlops(const runtime::PlanSpec &S) {
  const double N = double(totalSize(S));
  return (complexData(S) ? 5.0 : 2.5) * N * std::log2(N);
}

Buffer randomVector(std::mt19937_64 &Gen, std::size_t N) {
  std::uniform_real_distribution<double> D(-1.0, 1.0);
  Buffer V(N);
  for (double &X : V)
    X = D(Gen);
  return V;
}

namespace {
/// Doubles from the first addressed element of vector 0 to one past the
/// last element of the last vector, for one side of a layout.
std::size_t extent(std::int64_t HowMany, std::int64_t Len, std::int64_t Stride,
                   std::int64_t Dist) {
  const std::int64_t D = Dist ? Dist : (Len - 1) * Stride + 1;
  return static_cast<std::size_t>((HowMany - 1) * D + (Len - 1) * Stride + 1);
}
} // namespace

std::size_t inputExtent(const BenchSpec &B) {
  const std::int64_t Len = vectorLen(B.Spec);
  if (!B.Strided)
    return static_cast<std::size_t>(B.HowMany * Len);
  return extent(B.HowMany, Len, B.Layout.StrideX, B.Layout.DistX);
}

std::size_t outputExtent(const BenchSpec &B) {
  const std::int64_t Len = vectorLen(B.Spec);
  if (!B.Strided)
    return static_cast<std::size_t>(B.HowMany * Len);
  return extent(B.HowMany, Len, B.Layout.StrideY, B.Layout.DistY);
}

void executeSpec(runtime::Plan &P, const BenchSpec &B, double *Y,
                 const double *X) {
  if (B.Strided) {
    runtime::BatchLayout L = B.Layout;
    L.HowMany = B.HowMany;
    P.executeBatch(Y, X, L, support::Deadline(), B.Threads);
  } else {
    P.executeBatch(Y, X, B.HowMany, B.Threads);
  }
}

//===----------------------------------------------------------------------===//
// Oracle
//===----------------------------------------------------------------------===//

namespace {
/// Closed-form entry (k, j) of one dimension's user-facing oracle (the
/// element functions transforms::oracleMatrix is built from).
std::complex<double> closedFormEntry(const std::string &T, std::int64_t N,
                                     std::int64_t K, std::int64_t J) {
  if (T == "fft")
    return dftEntry(N, K, J);
  if (T == "wht")
    return whtEntry(N, K, J);
  if (T == "rdft")
    return rdftEntry(N, K, J);
  if (T == "dct2")
    return dct2Entry(N, K, J);
  if (T == "dct3")
    return dct3Entry(N, K, J);
  return dct4Entry(N, K, J);
}
} // namespace

OracleCheck::OracleCheck(const BenchSpec &Bench, std::uint64_t Seed)
    : B(Bench) {
  const transforms::TransformInfo &TI = *transforms::lookup(B.Spec.Transform);
  const std::vector<std::int64_t> Dims =
      B.Spec.Shape.size() >= 2 ? B.Spec.Shape
                               : std::vector<std::int64_t>{B.Spec.Size};
  const std::int64_t N = totalSize(B.Spec);
  Bound = 64.0 * std::log2(double(N)) * std::ldexp(1.0, -52);

  if (N <= kDenseOracleMax) {
    const Matrix M = transforms::oracleMatrix(TI, Dims);
    for (std::int64_t K = 0; K != N; ++K) {
      Rows.push_back(K);
      std::vector<Cplx> Row(static_cast<std::size_t>(N));
      for (std::int64_t J = 0; J != N; ++J)
        Row[J] = M.at(K, J);
      Entries.push_back(std::move(Row));
    }
    return;
  }

  // Larger transforms: a seeded sample of rows (plus the first and last),
  // each entry the product of the per-dimension oracle entries.
  std::mt19937_64 Gen(Seed ^ 0x5eedULL);
  const std::int64_t Sample =
      std::clamp<std::int64_t>((std::int64_t(1) << 18) / N, 4, 16);
  Rows = {0, N - 1};
  std::uniform_int_distribution<std::int64_t> Pick(1, N - 2);
  while (std::int64_t(Rows.size()) < Sample + 2)
    Rows.push_back(Pick(Gen));
  std::vector<Matrix> Dense(Dims.size(), Matrix(0, 0));
  for (std::size_t D = 0; D != Dims.size(); ++D)
    if (Dims[D] <= kDenseOracleMax)
      Dense[D] = TI.Oracle(Dims[D]);
  auto Entry = [&](std::size_t D, std::int64_t K, std::int64_t J) -> Cplx {
    return Dims[D] <= kDenseOracleMax
               ? Dense[D].at(K, J)
               : closedFormEntry(B.Spec.Transform, Dims[D], K, J);
  };
  for (std::int64_t K : Rows) {
    std::vector<Cplx> Row(static_cast<std::size_t>(N));
    for (std::int64_t J = 0; J != N; ++J) {
      // Row-major index decomposition, last dimension fastest.
      Cplx E = 1;
      std::int64_t KR = K, JR = J;
      for (std::size_t D = Dims.size(); D-- > 0;) {
        E *= Entry(D, KR % Dims[D], JR % Dims[D]);
        KR /= Dims[D];
        JR /= Dims[D];
      }
      Row[J] = E;
    }
    Entries.push_back(std::move(Row));
  }
}

bool OracleCheck::check(const double *Y, const double *X,
                        std::string &Why) const {
  const bool Cplx = complexData(B.Spec);
  const std::int64_t N = totalSize(B.Spec);
  const std::int64_t Len = vectorLen(B.Spec);
  const std::int64_t SX = B.Strided ? B.Layout.StrideX : 1;
  const std::int64_t SY = B.Strided ? B.Layout.StrideY : 1;
  const std::int64_t DX =
      B.Strided ? (B.Layout.DistX ? B.Layout.DistX : (Len - 1) * SX + 1) : Len;
  const std::int64_t DY =
      B.Strided ? (B.Layout.DistY ? B.Layout.DistY : (Len - 1) * SY + 1) : Len;
  using LC = std::complex<long double>;
  for (std::int64_t V = 0; V != B.HowMany; ++V) {
    const double *XV = X + V * DX;
    const double *YV = Y + V * DY;
    auto In = [&](std::int64_t J) -> LC {
      return Cplx ? LC(XV[2 * J * SX], XV[(2 * J + 1) * SX]) : LC(XV[J * SX]);
    };
    long double ErrSq = 0, RefSq = 0;
    for (std::size_t R = 0; R != Rows.size(); ++R) {
      LC Ref = 0;
      for (std::int64_t J = 0; J != N; ++J)
        Ref += LC(Entries[R][J]) * In(J);
      const std::int64_t K = Rows[R];
      const LC Got = Cplx ? LC(YV[2 * K * SY], YV[(2 * K + 1) * SY])
                          : LC(YV[K * SY]);
      ErrSq += std::norm(Got - Ref);
      RefSq += std::norm(Ref);
    }
    const double Rel =
        RefSq > 0 ? double(std::sqrt(ErrSq / RefSq)) : double(std::sqrt(ErrSq));
    if (!(Rel <= Bound)) {
      std::ostringstream SS;
      SS << B.Label << ": vector " << V << " relative L2 error " << Rel
         << " exceeds the bound " << Bound;
      Why = SS.str();
      return false;
    }
  }
  return true;
}

bool Pin::check(const runtime::Plan &P, runtime::Backend Want,
                std::string &Why) {
  if (P.backend() != Want || P.usedFallback()) {
    Why = P.spec().key() + ": demoted to the " +
          runtime::backendName(P.backend()) + " tier (" +
          P.fallbackReason() + ")";
    return false;
  }
  if (P.deadlinePressured()) {
    Why = P.spec().key() + ": built under deadline pressure";
    return false;
  }
  if (!Set) {
    Formula = P.formulaText();
    Variant = P.codegenVariant();
    Set = true;
    return true;
  }
  if (P.formulaText() != Formula || P.codegenVariant() != Variant) {
    Why = P.spec().key() + ": winner " + hashText(P.formulaText()) +
          " differs from the pinned " + hashText(Formula);
    return false;
  }
  return true;
}

std::string hashText(const std::string &S) {
  std::uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Planning helpers
//===----------------------------------------------------------------------===//

PlanDirs PlanDirs::fresh(const std::string &Parent, const std::string &Name) {
  namespace fs = std::filesystem;
  const fs::path Dir = fs::path(Parent) / Name;
  fs::remove_all(Dir);
  fs::create_directories(Dir / "kernels");
  return {(Dir / "wisdom").string(), (Dir / "kernels").string()};
}

void PlanDirs::remove() const {
  std::filesystem::remove_all(std::filesystem::path(Wisdom).parent_path());
}

runtime::PlannerOptions plannerOptions(const PlanDirs &D) {
  runtime::PlannerOptions PO;
  PO.WisdomPath = D.Wisdom;
  PO.KernelCacheDir = D.KernelCache;
  return PO;
}

std::shared_ptr<runtime::Plan> planOnce(const runtime::PlanSpec &S,
                                        const PlanDirs &D, double &Ms,
                                        std::string &Why) {
  Diagnostics Diags;
  runtime::Planner P(Diags, plannerOptions(D));
  const Clock::time_point T0 = Clock::now();
  std::shared_ptr<runtime::Plan> Plan = P.plan(S);
  Ms = msSince(T0);
  if (!Plan) {
    Why = S.key() + ": planning failed: " + Diags.dump();
    return nullptr;
  }
  if (!P.saveWisdom())
    Why = S.key() + ": saving wisdom failed";
  return Plan;
}

namespace {
std::string subNameFor(const runtime::PlanSpec &S) {
  std::string Name = S.Transform;
  if (S.Shape.size() >= 2) {
    for (std::size_t I = 0; I != S.Shape.size(); ++I)
      Name += (I ? "x" : "") + std::to_string(S.Shape[I]);
  } else {
    Name += std::to_string(S.Size);
  }
  return Name;
}

/// The WHT's flat best-of-enumeration, as the planner runs it: a wisdom
/// hit parses the recorded winner, a miss costs every enumerated tree.
FormulaRef searchWHT(std::int64_t N, std::int64_t Unroll, search::Evaluator &E,
                     search::PlanCache &W) {
  const std::size_t Cap = runtime::PlannerOptions().WhtCandidateCap;
  search::PlanKey Key;
  Key.Transform = "wht-flat" + std::to_string(Cap);
  Key.Size = N;
  Key.Datatype = E.datatype();
  Key.UnrollThreshold = Unroll;
  Key.Evaluator = E.kindName();
  Key.Host = search::PlanCache::hostFingerprint();
  if (auto Hit = W.lookup(Key); Hit && !Hit->empty()) {
    Diagnostics D;
    if (FormulaRef F = parseFormulaString(Hit->front().FormulaText, D))
      return F;
  }
  FormulaRef Best;
  double BestCost = 0;
  for (const FormulaRef &F : gen::enumerateWHT(N, Cap))
    if (auto C = E.cost(F); C && (!Best || *C < BestCost)) {
      Best = F;
      BestCost = *C;
    }
  return Best;
}
} // namespace

double counterValue(const char *Name) {
  return double(telemetry::counter(Name).value());
}

StageTimes replayPlan(const runtime::Plan &Ref, const PlanDirs &D, Tracer &T) {
  StageTimes R;
  const runtime::PlanSpec &S = Ref.spec();
  const transforms::TransformInfo &TI = *transforms::lookup(S.Transform);
  const std::string KernelType =
      TI.IOLayout == transforms::Layout::HalfComplex ? TI.KernelDatatype
                                                     : S.Datatype;
  const std::vector<std::int64_t> Dims =
      S.Shape.size() >= 2 ? S.Shape : std::vector<std::int64_t>{S.Size};
  const double Hits0 = counterValue("wisdom.hits"),
               Cand0 = counterValue("search.candidates_evaluated"),
               Comp0 = counterValue("native.compiles"),
               KHit0 = counterValue("kernelcache.hits");

  Diagnostics Diags;
  search::PlanCache Wisdom(Diags);
  {
    Tracer::Scope Sc(T, "wisdom.load");
    Wisdom.load(D.Wisdom);
    R.WisdomLoad = Sc.stop();
  }

  driver::CompilerOptions CO;
  CO.UnrollThreshold = S.UnrollThreshold;
  CO.EmitCode = false;
  {
    Tracer::Scope Sc(T, "search");
    search::OpCountEvaluator Eval(Diags, CO);
    Eval.setDatatype(KernelType);
    std::vector<FormulaRef> Parts;
    switch (TI.PlanFamily) {
    case transforms::Family::SearchedFFT: {
      search::SearchOptions SO;
      SO.MaxLeaf = S.MaxLeaf;
      SO.Transform = S.Transform;
      search::DPSearch Search(Eval, Diags, SO, &Wisdom);
      for (std::int64_t Ni : Dims)
        if (auto Best = Search.best(Ni))
          Parts.push_back(Best->Formula);
      break;
    }
    case transforms::Family::EnumeratedWHT:
      for (std::int64_t Ni : Dims)
        Parts.push_back(searchWHT(Ni, S.UnrollThreshold, Eval, Wisdom));
      break;
    case transforms::Family::Recursive:
      for (std::int64_t Ni : Dims)
        Parts.push_back(TI.Rule(Ni));
      Eval.cost(makeTensor(Parts));
      break;
    }
    R.Search = Sc.stop();
  }

  driver::Compiler Compiler(Diags);
  DirectiveState Dirs;
  Dirs.SubName = subNameFor(S);
  Dirs.Datatype = KernelType;
  Dirs.Language = "c";
  std::optional<driver::CompiledUnit> Unit;
  {
    Tracer::Scope Sc(T, "compile");
    Unit = Compiler.compileFormula(Ref.formula(), Dirs, CO);
    R.Compile = Sc.stop();
  }
  if (!Unit)
    return R;
  R.Instrs = double(Unit->Final.Body.size());

  const bool Vector = Ref.codegenVariant() == codegen::CodegenVariant::Vector;
  {
    Tracer::Scope Sc(T, "codegen");
    std::string Code;
    if (Vector) {
      codegen::VectorEmitOptions VO;
      VO.ISA = codegen::detectISA();
      VO.ExternalTables = true;
      VO.ThreadSafe = true;
      Code = codegen::emitVectorC(Unit->Final, VO);
    } else {
      codegen::CEmitOptions CE;
      CE.ExternalTables = true;
      CE.ThreadSafe = true;
      Code = codegen::emitC(Unit->Final, CE);
    }
    R.Codegen = Sc.stop();
    R.CBytes = double(Code.size());
  }

  if (Ref.backend() == runtime::Backend::Native) {
    perf::KernelCache::setDirectory(D.KernelCache);
    perf::KernelBuildOptions BO;
    BO.ThreadSafe = true;
    BO.Variant = Ref.codegenVariant();
    perf::KernelError Err;
    std::unique_ptr<perf::CompiledKernel> K;
    {
      Tracer::Scope Sc(T, "kernel.create");
      K = perf::CompiledKernel::create(Unit->Final, &Err, BO);
      R.Create = Sc.stop();
    }
    if (K) {
      Tracer::Scope Sc(T, "kernel.trial");
      K->trial(runtime::Planner::trialTimeoutSeconds());
      R.Trial = Sc.stop();
    }
  }
  R.WisdomHits = counterValue("wisdom.hits") - Hits0;
  R.Candidates = counterValue("search.candidates_evaluated") - Cand0;
  R.NativeCompiles = counterValue("native.compiles") - Comp0;
  R.CacheHits = counterValue("kernelcache.hits") - KHit0;
  return R;
}

void replayAll(
    const std::vector<std::pair<std::string, std::shared_ptr<runtime::Plan>>>
        &Plans,
    const PlanDirs &Warm, const std::string &Scratch, int Reps, Tracer &T,
    ReplaySet &Cold, ReplaySet &WarmOut) {
  for (int Rep = 0; Rep != Reps; ++Rep)
    for (const auto &[Label, P] : Plans) {
      const PlanDirs Empty = PlanDirs::fresh(Scratch, "replay-cold");
      {
        Tracer::Scope Sc(T, "replay.cold");
        Cold[Label].push_back(replayPlan(*P, Empty, T));
      }
      Empty.remove();
      Tracer::Scope Sc(T, "replay.warm");
      WarmOut[Label].push_back(replayPlan(*P, Warm, T));
    }
}

double kernelOnlyNs(const runtime::Plan &P, const BenchSpec &B, int Repeats) {
  if (P.backend() != runtime::Backend::Native)
    return 0;
  perf::KernelBuildOptions BO;
  BO.ThreadSafe = true;
  BO.Variant = P.codegenVariant();
  perf::KernelError Err;
  auto K = perf::CompiledKernel::create(P.program(), &Err, BO);
  if (!K)
    return 0;
  const std::int64_t Calls = (B.HowMany + K->lanes() - 1) / K->lanes();
  std::mt19937_64 Gen(7);
  Buffer X = randomVector(Gen, Calls * K->inLen());
  Buffer Y(static_cast<std::size_t>(Calls * K->outLen()));
  std::vector<double> Ms;
  for (int Rep = 0; Rep != Repeats; ++Rep) {
    const Clock::time_point T0 = Clock::now();
    for (std::int64_t C = 0; C != Calls; ++C)
      K->run(Y.data() + C * K->outLen(), X.data() + C * K->inLen());
    Ms.push_back(msSince(T0));
  }
  return median(Ms) * 1e6 / double(B.HowMany);
}

double kernelFlops(const runtime::Plan &P) {
  return double(P.program().dynamicOpCount());
}

double kernelBytes(const runtime::Plan &P) {
  const icode::Program &Prog = P.program();
  const perf::MemoryUsage U = perf::accountProgram(Prog);
  const std::int64_t Scale = Prog.LoweredToReal ? 2 : 1;
  return double(U.TempBytes + U.TableBytes) +
         double((Prog.InSize + Prog.OutSize) * Scale * 8);
}

double peakRssMb() {
  struct rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return double(RU.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Metric tables
//===----------------------------------------------------------------------===//

namespace {
const std::pair<const char *, const char *> kLayerMetrics[] = {
    {"wisdom.load_ms", "ms"},
    {"wisdom.hits", "count"},
    {"search.ms", "ms"},
    {"search.warm_ms", "ms"},
    {"search.candidates", "count"},
    {"compile.ms", "ms"},
    {"icode.instrs", "count"},
    {"codegen.ms", "ms"},
    {"codegen.c_bytes", "bytes"},
    {"kernel.create_cold_ms", "ms"},
    {"kernel.create_warm_ms", "ms"},
    {"native.compiles", "count"},
    {"kernelcache.hits", "count"},
    {"kernel.trial_ms", "ms"},
    {"plan.unexplained_cold_ms", "ms"},
    {"plan.unexplained_warm_ms", "ms"},
    {"exec.batch_ns", "ns"},
    {"exec.kernel_ns", "ns"},
    {"exec.staging_ns", "ns"},
    {"exec.thread_speedup", "x"},
    {"kernel.flops", "count"},
    {"kernel.bytes", "bytes"},
    {"spld.rtt_us", "us"},
    {"spld.inproc_us", "us"},
    {"spld.overhead_us", "us"},
    {"proto.encode_us", "us"},
    {"proto.decode_us", "us"},
    {"spld.busy_retries", "count"},
    {"registry.hits", "count"},
    {"trace.coverage_pct", "%"},
    {"trace.overhead_pct", "%"},
};
} // namespace

void emitLayers(const std::map<std::string, double> &Layers, Outcome &Out) {
  for (const auto &[Name, Unit] : kLayerMetrics) {
    auto It = Layers.find(Name);
    Out.metric(Name, It == Layers.end() ? 0.0 : It->second, Unit);
  }
}

double addPlanLayers(const SampleSet &ColdPlan, const SampleSet &WarmPlan,
                     const ReplaySet &Cold, const ReplaySet &Warm,
                     std::map<std::string, double> &Layers) {
  // Sum over labels of the per-label median of one StageTimes field.
  auto Stage = [](const ReplaySet &Set, double StageTimes::*Field) {
    double Total = 0;
    for (const auto &[Label, Reps] : Set) {
      std::vector<double> V;
      for (const StageTimes &S : Reps)
        V.push_back(S.*Field);
      Total += median(V);
    }
    return Total;
  };
  auto Stages = [](const ReplaySet &Set) {
    double Total = 0;
    for (const auto &[Label, Reps] : Set) {
      std::vector<double> V;
      for (const StageTimes &S : Reps)
        V.push_back(S.stagesMs());
      Total += median(V);
    }
    return Total;
  };
  Layers["wisdom.load_ms"] = Stage(Warm, &StageTimes::WisdomLoad);
  Layers["wisdom.hits"] = Stage(Warm, &StageTimes::WisdomHits);
  Layers["search.ms"] = Stage(Cold, &StageTimes::Search);
  Layers["search.warm_ms"] = Stage(Warm, &StageTimes::Search);
  Layers["search.candidates"] = Stage(Cold, &StageTimes::Candidates);
  Layers["compile.ms"] = Stage(Cold, &StageTimes::Compile);
  Layers["icode.instrs"] = Stage(Cold, &StageTimes::Instrs);
  Layers["codegen.ms"] = Stage(Cold, &StageTimes::Codegen);
  Layers["codegen.c_bytes"] = Stage(Cold, &StageTimes::CBytes);
  Layers["kernel.create_cold_ms"] = Stage(Cold, &StageTimes::Create);
  Layers["kernel.create_warm_ms"] = Stage(Warm, &StageTimes::Create);
  Layers["native.compiles"] = Stage(Cold, &StageTimes::NativeCompiles);
  Layers["kernelcache.hits"] = Stage(Warm, &StageTimes::CacheHits);
  Layers["kernel.trial_ms"] = Stage(Warm, &StageTimes::Trial);
  const double ColdStages = Stages(Cold), WarmStages = Stages(Warm);
  const double ColdTotal = ColdPlan.sumOfMedians(),
               WarmTotal = WarmPlan.sumOfMedians();
  Layers["plan.unexplained_cold_ms"] = ColdTotal - ColdStages;
  Layers["plan.unexplained_warm_ms"] = WarmTotal - WarmStages;
  return ColdTotal + WarmTotal > 0
             ? 100.0 * (ColdStages + WarmStages) / (ColdTotal + WarmTotal)
             : 0;
}

} // namespace perfbench
