//===- perfbench/src/Bench.h - Shared benchmark machinery -------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the three workloads (plan, execute, spld) share: options, sample
/// statistics, the in-memory span recorder, the metric/outcome record that
/// becomes the final JSON line, seeded inputs, the dense-oracle check, and
/// the replay that splits one Planner::plan call into its public stages.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_PERFBENCH_BENCH_H
#define SPL_PERFBENCH_BENCH_H

#include "runtime/Plan.h"
#include "runtime/Planner.h"

#include <atomic>
#include <chrono>
#include <complex>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir; ///< Private scratch directory for this run.
};

/// Set-ups per plan run (execute runs two more, spld eleven); setup_s
/// reports their median.
constexpr int kSetups = 3;

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolation quantile (numpy's default); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) { return quantile(V, 0.5); }
double geomean(const std::vector<double> &V);

/// Per-key sample sets ("fft1024" -> latencies), aggregated across keys.
class SampleSet {
public:
  void add(const std::string &Key, double V) { S[Key].push_back(V); }
  /// Geometric mean over keys of each key's quantile \p Q.
  double geomeanOf(double Q) const;
  /// Sum over keys of each key's median.
  double sumOfMedians() const;
  const std::map<std::string, std::vector<double>> &all() const { return S; }

private:
  std::map<std::string, std::vector<double>> S;
};

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder around the public calls the benchmark makes.
/// Not recording, a Scope costs two clock reads (its duration is still
/// returned to the caller); recording, it also appends a span. Spans are
/// written as a Chrome trace when the run ends.
///
/// A traced run records from the start, with the telemetry registry armed.
/// setRecording(false) turns both off, so trace.overhead_pct can compare
/// ops timed with the instrumentation on against ops timed with it off.
class Tracer {
public:
  explicit Tracer(bool Traced);

  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope() { stop(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Ends the span (idempotent) and returns its duration in ms.
    double stop();

  private:
    Tracer &T;
    const char *Name;
    Clock::time_point Start;
    int Parent = -1;
    int Index = -1;
    double Ms = -1;
  };

  /// True in a traced run, whether or not it is recording right now.
  bool enabled() const { return Traced; }

  /// Turns span recording and the telemetry registry on or off (traced
  /// runs only; a no-op otherwise).
  void setRecording(bool On);
  bool recording() const { return Recording.load(); }

  /// Even while no setRecording call is under way. An op that reads the
  /// same even generation before and after ran entirely in one state.
  unsigned generation() const { return Generation.load(); }

  /// Self time per span name in ms: duration minus the time its direct
  /// children cover.
  std::map<std::string, double> selfTimes() const;

  /// Writes the spans as a Chrome trace JSON array. False on I/O failure.
  bool write(const std::string &Path) const;

private:
  struct Span {
    const char *Name;
    double StartUs, EndUs;
    int Parent;
    std::uint64_t Thread;
  };
  bool Traced;
  std::atomic<bool> Recording;
  std::atomic<unsigned> Generation{0};
  Clock::time_point Epoch = Clock::now();
  mutable std::mutex M;
  std::vector<Span> Spans;
};

//===----------------------------------------------------------------------===//
// Outcome
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Everything one run reports: op counts, metrics, and human-readable
/// report lines printed before the final JSON line.
class Outcome {
public:
  void attempt(std::int64_t N = 1);
  /// Counts one failed op and logs its reason (the first few) to stderr.
  void fail(const std::string &Why);
  void metric(const std::string &Name, double Value, const std::string &Unit);
  void note(const std::string &Line);

  std::int64_t attempted() const { return Attempted; }
  std::int64_t failed() const { return Failed; }
  const std::vector<Metric> &metrics() const { return Metrics; }
  const std::vector<std::string> &notes() const { return Notes; }

private:
  std::mutex M;
  std::int64_t Attempted = 0, Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Notes;
};

//===----------------------------------------------------------------------===//
// Specs, inputs and the oracle
//===----------------------------------------------------------------------===//

/// One entry of a workload's spec mix.
struct BenchSpec {
  std::string Label; ///< Stable per-class key ("fft1024", "rdft4096s").
  spl::runtime::PlanSpec Spec;
  std::int64_t HowMany = 1;         ///< Vectors per executeBatch call.
  spl::runtime::BatchLayout Layout; ///< Strided layout (HowMany filled in).
  bool Strided = false;             ///< Use the BatchLayout entry point.
  int Threads = 1;
};

/// Doubles per user-facing vector of \p S (2N complex, N real).
std::int64_t vectorLen(const spl::runtime::PlanSpec &S);

/// Total logical size N of \p S (product of its shape).
std::int64_t totalSize(const spl::runtime::PlanSpec &S);

/// Pseudo-flops of one transform: 5 N log2 N for complex data, 2.5 N log2 N
/// for real data (the paper's Fig. 3/4 normalization).
double pseudoFlops(const spl::runtime::PlanSpec &S);

/// Allocator for 64-byte-aligned buffers. Kernels run in place on the
/// caller's buffers, and malloc's alignment varies from run to run, which
/// moved a kernel's speed by up to 25% between otherwise identical runs.
template <class T> struct AlignedAlloc {
  using value_type = T;
  AlignedAlloc() = default;
  template <class U> AlignedAlloc(const AlignedAlloc<U> &) {}
  T *allocate(std::size_t N) {
    return static_cast<T *>(
        ::operator new(N * sizeof(T), std::align_val_t(64)));
  }
  void deallocate(T *P, std::size_t) {
    ::operator delete(P, std::align_val_t(64));
  }
  friend bool operator==(const AlignedAlloc &, const AlignedAlloc &) {
    return true;
  }
};
using Buffer = std::vector<double, AlignedAlloc<double>>;

/// Seeded uniform [-1, 1) doubles.
Buffer randomVector(std::mt19937_64 &Gen, std::size_t N);

/// Input/output buffer extents (in doubles) for \p B's layout.
std::size_t inputExtent(const BenchSpec &B);
std::size_t outputExtent(const BenchSpec &B);

/// Runs \p B once on \p P (the strided or dense batch entry point).
void executeSpec(spl::runtime::Plan &P, const BenchSpec &B, double *Y,
                 const double *X);

/// Checks executeBatch outputs against the transform's dense oracle
/// (transforms::oracleMatrix for dimensions up to kDenseOracleMax points,
/// the same closed-form entries row by row above that). Every row is
/// checked up to kDenseOracleMax points, a seeded sample of rows beyond.
/// The error bound is relative L2 <= 64 * log2(N) * 2^-52 per vector.
class OracleCheck {
public:
  static constexpr std::int64_t kDenseOracleMax = 256;

  OracleCheck(const BenchSpec &B, std::uint64_t Seed);

  /// Checks every vector of one batch (\p X in, \p Y out, laid out as
  /// \p B says). Returns false with \p Why set on a mismatch.
  bool check(const double *Y, const double *X, std::string &Why) const;

private:
  using Cplx = std::complex<double>;
  BenchSpec B;
  std::vector<std::int64_t> Rows;  ///< Checked output indices (logical).
  std::vector<std::vector<Cplx>> Entries; ///< Entries[r][j] of row Rows[r].
  double Bound = 0;
};

/// The winner and tier a spec is pinned to after its first plan.
struct Pin {
  std::string Formula;
  spl::codegen::CodegenVariant Variant = spl::codegen::CodegenVariant::Scalar;
  bool Set = false;

  /// Pins on first use; afterwards returns false (with \p Why) when \p P
  /// deviates. Also rejects a plan that is demoted off \p Want or was built
  /// under deadline pressure.
  bool check(const spl::runtime::Plan &P, spl::runtime::Backend Want,
             std::string &Why);
};

/// FNV-1a hex hash (pinned winner identity in reports).
std::string hashText(const std::string &S);

//===----------------------------------------------------------------------===//
// Planning helpers
//===----------------------------------------------------------------------===//

/// A private wisdom file + kernel-cache directory pair.
struct PlanDirs {
  std::string Wisdom;
  std::string KernelCache;
  /// Creates a fresh, empty pair under \p Parent named \p Name.
  static PlanDirs fresh(const std::string &Parent, const std::string &Name);
  void remove() const;
};

spl::runtime::PlannerOptions plannerOptions(const PlanDirs &D);

/// Plans \p S with a new Planner over \p D, saves wisdom, destroys the
/// Planner. Returns null (with \p Why) on failure; \p Ms gets the
/// Planner::plan latency.
std::shared_ptr<spl::runtime::Plan> planOnce(const spl::runtime::PlanSpec &S,
                                             const PlanDirs &D, double &Ms,
                                             std::string &Why);

/// Times of one replayed plan, stage by stage (ms), plus counts read from
/// the telemetry registry.
struct StageTimes {
  double WisdomLoad = 0, Search = 0, Compile = 0, Codegen = 0, Create = 0,
         Trial = 0;
  double Candidates = 0, Instrs = 0, CBytes = 0, NativeCompiles = 0,
         CacheHits = 0, WisdomHits = 0;
  double stagesMs() const {
    // Codegen runs inside CompiledKernel::create, so it is not added again.
    return WisdomLoad + Search + Compile + Create + Trial;
  }
};

/// Replays the public stages Planner::plan runs for \p Ref's spec — wisdom
/// load, DP search (or WHT enumeration / rule), compileFormula, emitC or
/// emitVectorC, CompiledKernel::create, trial — over \p D, each under a
/// span. With empty directories this is the cold path, over the
/// directories a plan was saved to the warm path.
StageTimes replayPlan(const spl::runtime::Plan &Ref, const PlanDirs &D,
                      Tracer &T);

/// Median ns per transform of the plan's own kernel (CompiledKernel::run on
/// pre-staged data) for \p B's batch; 0 off the native tier.
double kernelOnlyNs(const spl::runtime::Plan &P, const BenchSpec &B,
                    int Repeats);

/// Flops and bytes one kernel call touches, from the final i-code.
double kernelFlops(const spl::runtime::Plan &P);
double kernelBytes(const spl::runtime::Plan &P);

/// Telemetry registry counter value (the registry is armed in traced runs).
double counterValue(const char *Name);

/// Peak resident set size of this process in MiB.
double peakRssMb();

/// The workloads.
void runPlanWorkload(const Options &O, Outcome &Out);
void runExecuteWorkload(const Options &O, Outcome &Out);
void runSpldWorkload(const Options &O, Outcome &Out);

/// Fills \p Layers (name -> value) into \p Out for every per-layer metric,
/// in a fixed order; a layer the workload does not run reads 0, so each
/// workload prints the same names.
void emitLayers(const std::map<std::string, double> &Layers, Outcome &Out);

/// Replays per spec label.
using ReplaySet = std::map<std::string, std::vector<StageTimes>>;

/// Adds the planning-stage per-layer values: each is the sum over spec
/// labels of that label's median, so stages add up to plan latency and
/// plan.unexplained_*_ms is what they leave over. Returns the share (%) of
/// the summed cold + warm plan medians the stages explain.
double addPlanLayers(const SampleSet &ColdPlan, const SampleSet &WarmPlan,
                     const ReplaySet &Cold, const ReplaySet &Warm,
                     std::map<std::string, double> &Layers);

/// Cold- and warm-replays every spec of \p Plans \p Reps times (traced
/// runs of the execute and spld workloads, whose planning is set-up).
void replayAll(const std::vector<std::pair<std::string,
                                           std::shared_ptr<spl::runtime::Plan>>>
                   &Plans,
               const PlanDirs &Warm, const std::string &Scratch, int Reps,
               Tracer &T, ReplaySet &Cold, ReplaySet &WarmOut);

} // namespace perfbench

#endif // SPL_PERFBENCH_BENCH_H
