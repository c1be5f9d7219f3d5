//===- telemetry/Metrics.h - Process-wide metric catalogue ------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cross-layer metrics for the compile/search/execute pipeline: counters,
/// gauges, and fixed-bucket latency histograms, declared once in the closed
/// catalogue telemetry/Metrics.def and exportable as JSON
/// (`splrun --stats-json`) or a per-stage profile table (`splc --profile`).
///
/// The discipline mirrors support::FaultInjection: when telemetry is
/// disarmed (the default), every instrumentation site costs exactly one
/// relaxed atomic load of a shared armed mask — no locks, no allocation, no
/// branches beyond the single test. Arming happens either programmatically
/// (the tools arm on `--profile`/`--stats-json`) or through the environment:
///
///   SPL_METRICS=1        collect metrics (query via API / tool flags)
///   SPL_METRICS=path     collect and dump the catalogue JSON to `path` at exit
///   SPL_TRACE=1 / path   same for spans (see telemetry/Trace.h)
///
/// Every catalogue line is a namespace-scope instrument, constant-
/// initialized, so sites record into it directly from any thread:
///
/// \code
///   telemetry::WisdomHits.add();      // one relaxed load when disarmed
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TELEMETRY_METRICS_H
#define SPL_TELEMETRY_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace spl::telemetry {

//===----------------------------------------------------------------------===//
// Armed mask
//===----------------------------------------------------------------------===//

/// Bits of the process-wide armed mask.
enum ArmedBits : unsigned {
  kMetrics = 1u << 0, ///< Counters/gauges/histograms record.
  kTrace = 1u << 1,   ///< The span tracer records.
};

namespace detail {
/// The shared armed mask. Zero means fully disarmed; the env configuration
/// is parsed lazily on first query (same pattern as FaultInjection::Armed).
extern std::atomic<unsigned> ArmedMask;

/// Parses SPL_METRICS / SPL_TRACE once and stores the result in ArmedMask.
/// Returns the parsed mask.
unsigned parseEnvOnce();
} // namespace detail

/// Current armed mask; one relaxed load after the first (lazy) env parse.
inline unsigned armedMask() {
  unsigned M = detail::ArmedMask.load(std::memory_order_relaxed);
  if (M & 0x80000000u) // Unparsed sentinel — first call only.
    return detail::parseEnvOnce();
  return M;
}

/// True when any telemetry (metrics or tracing) is armed. This is the single
/// relaxed load hot paths pay when disarmed.
inline bool active() { return armedMask() != 0; }

/// True when metric recording is armed.
inline bool metricsEnabled() { return (armedMask() & kMetrics) != 0; }

/// True when span tracing is armed.
inline bool tracingEnabled() { return (armedMask() & kTrace) != 0; }

/// Programmatic arm/disarm, overriding the environment (used by the tools
/// for --profile/--stats-json and by tests).
void setMetricsEnabled(bool On);
void setTracingEnabled(bool On);

//===----------------------------------------------------------------------===//
// Instruments
//===----------------------------------------------------------------------===//

/// Monotonic event counter.
class Counter {
public:
  constexpr Counter() = default;
  constexpr explicit Counter(const char *Name) : Name(Name) {}

  /// Adds \p N when metrics are armed; a single relaxed load otherwise.
  void add(std::uint64_t N = 1) {
    if (metricsEnabled())
      Value.fetch_add(N, std::memory_order_relaxed);
  }

  std::uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }
  const char *name() const { return Name; }

private:
  const char *Name = nullptr; ///< Catalogue name; null for local instruments.
  std::atomic<std::uint64_t> Value{0};
};

/// Last-value gauge (e.g. live plan count).
class Gauge {
public:
  constexpr Gauge() = default;
  constexpr explicit Gauge(const char *Name) : Name(Name) {}

  void set(std::int64_t V) {
    if (metricsEnabled())
      Value.store(V, std::memory_order_relaxed);
  }
  void add(std::int64_t N) {
    if (metricsEnabled())
      Value.fetch_add(N, std::memory_order_relaxed);
  }

  std::int64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }
  const char *name() const { return Name; }

private:
  const char *Name = nullptr;
  std::atomic<std::int64_t> Value{0};
};

/// Point-in-time view of a Histogram; quantiles resolve to the upper bound
/// of the bucket containing the requested rank (empty snapshot -> all 0).
struct HistogramSnapshot {
  static constexpr int NumBuckets = 64;

  std::uint64_t Count = 0;
  std::uint64_t Sum = 0;
  std::uint64_t Min = 0;
  std::uint64_t Max = 0;
  std::array<std::uint64_t, NumBuckets> Buckets{};

  /// Value at quantile \p Q in [0,1]: the upper bound of the bucket holding
  /// the ceil(Q*Count)-th sample, clamped to the observed Max.
  std::uint64_t quantile(double Q) const;
  std::uint64_t p50() const { return quantile(0.50); }
  std::uint64_t p95() const { return quantile(0.95); }
  std::uint64_t p99() const { return quantile(0.99); }

  /// Inclusive upper bound of bucket \p I: 0 for bucket 0, 2^I - 1 for
  /// 0 < I < NumBuckets-1. The final bucket saturates (holds every larger
  /// sample) and reports UINT64_MAX.
  static std::uint64_t bucketUpperBound(int I);
  /// Inclusive lower bound of bucket \p I: 0 for bucket 0, else 2^(I-1).
  static std::uint64_t bucketLowerBound(int I);
};

/// Fixed-bucket latency histogram over uint64 samples (nanoseconds by
/// convention). 64 power-of-two buckets keyed by bit width: bucket 0 holds
/// the value 0, bucket i holds [2^(i-1), 2^i - 1]; samples wider than the
/// last bucket saturate into it. record() is lock-free (relaxed atomics
/// plus CAS loops for min/max) and safe from any number of threads.
class Histogram {
public:
  static constexpr int NumBuckets = HistogramSnapshot::NumBuckets;

  constexpr Histogram() = default;
  /// \p Span, when set, is the trace span a StageTimer on this histogram
  /// records (a string literal; SPL_STAGE lines in Metrics.def).
  constexpr explicit Histogram(const char *Name, const char *Span = nullptr)
      : Name(Name), Span(Span) {}

  /// Records \p Sample when metrics are armed; one relaxed load otherwise.
  void record(std::uint64_t Sample) {
    if (metricsEnabled())
      recordAlways(Sample);
  }

  /// Records unconditionally (for callers that check armedMask() themselves).
  void recordAlways(std::uint64_t Sample);

  HistogramSnapshot snapshot() const;
  void reset();
  const char *name() const { return Name; }
  const char *span() const { return Span; }

  /// Bucket index for \p Sample: 0 for 0, else bit_width(Sample) clamped to
  /// the last bucket.
  static int bucketIndex(std::uint64_t Sample);

private:
  const char *Name = nullptr;
  const char *Span = nullptr;
  std::atomic<std::uint64_t> Count{0};
  std::atomic<std::uint64_t> Sum{0};
  std::atomic<std::uint64_t> Min{UINT64_MAX};
  std::atomic<std::uint64_t> Max{0};
  std::array<std::atomic<std::uint64_t>, NumBuckets> Buckets{};
};

//===----------------------------------------------------------------------===//
// The catalogue
//===----------------------------------------------------------------------===//

#define SPL_COUNTER(Id, Name) extern Counter Id;
#define SPL_GAUGE(Id, Name) extern Gauge Id;
#define SPL_HISTOGRAM(Id, Name) extern Histogram Id;
#include "telemetry/Metrics.def"

/// The catalogue instrument named \p Name, for readers that only know the
/// name (benches, tests). An unknown name is a programming error: it prints
/// the name and aborts.
Counter &counter(std::string_view Name);
Gauge &gauge(std::string_view Name);
Histogram &histogram(std::string_view Name);

/// Minimal JSON string escape for names, paths and diagnostics embedded in
/// JSON documents.
std::string jsonEscape(const std::string &S);

/// The whole catalogue as one JSON object, every entry included (zeros too):
/// {"counters":{...},"gauges":{...},
///  "histograms":{name:{count,sum,min,max,p50,p95,p99,buckets:[[lo,n]..]}}}.
std::string metricsJson();

/// Human-readable per-stage table for `splc --profile`: histograms with
/// samples (count/total/p50/p95/p99), then nonzero counters and gauges.
std::string profileTable();

/// Zeroes every catalogue instrument (tests; tool reruns).
void resetAllMetrics();

/// If SPL_METRICS was set to a path, writes metricsJson() there now (also
/// installed as an atexit hook on first env parse). Returns false on write
/// failure.
bool dumpMetricsIfConfigured();

} // namespace spl::telemetry

#endif // SPL_TELEMETRY_METRICS_H
