//===- telemetry/Trace.h - Scoped-span tracer -------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lock-free scoped-span tracer for the compile/search/execute pipeline.
/// Spans land in a fixed-capacity ring buffer (a relaxed fetch_add claims a
/// slot; old events are overwritten once the ring wraps) and export as a
/// chrome://tracing "complete event" array:
///
///   [{"name":"plan","ph":"X","ts":12.3,"dur":4.5,"pid":1,"tid":2}, ...]
///
/// Arming follows telemetry/Metrics.h: SPL_TRACE=1 records, SPL_TRACE=path
/// records and dumps to `path` at exit, `splrun --trace-json` arms
/// programmatically. A disarmed Span costs one relaxed atomic load.
///
/// Span names are captured as `const char *` without copying, so they must
/// be string literals (or otherwise outlive the tracer) — fine for the
/// fixed set of pipeline stages this instruments.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TELEMETRY_TRACE_H
#define SPL_TELEMETRY_TRACE_H

#include "telemetry/Metrics.h"

#include <atomic>
#include <cstdint>
#include <string>

namespace spl::telemetry {

/// One completed span in the ring.
struct TraceEvent {
  const char *Name = nullptr; ///< Static string; nullptr = empty slot.
  std::uint64_t StartNs = 0;  ///< Relative to process trace epoch.
  std::uint64_t DurNs = 0;
  std::uint32_t Tid = 0; ///< Small per-process thread ordinal.
};

/// Fixed-ring span collector. All methods are safe from any thread.
class Tracer {
public:
  /// Ring capacity (power of two so slot = index & (Capacity-1)).
  static constexpr std::size_t Capacity = 1u << 16;

  static Tracer &instance();

  /// Records a completed span when tracing is armed (callers on hot paths
  /// gate on tracingEnabled() themselves to also skip the clock reads).
  void record(const char *Name, std::uint64_t StartNs, std::uint64_t DurNs);

  /// Number of spans recorded since the last reset (may exceed Capacity;
  /// only the newest Capacity survive in the ring).
  std::uint64_t recorded() const;

  /// Drops all recorded spans.
  void reset();

  /// chrome://tracing JSON array of the surviving spans, oldest first.
  std::string toJson() const;

private:
  Tracer();
  struct Impl;
  Impl &impl() const;
};

/// Nanoseconds since the process trace epoch (steady clock).
std::uint64_t traceNowNs();

/// RAII span: measures construction-to-destruction and records it into the
/// Tracer. One relaxed atomic load when tracing is disarmed.
class Span {
public:
  explicit Span(const char *Name) {
    if (tracingEnabled()) {
      this->Name = Name;
      StartNs = traceNowNs();
    }
  }
  ~Span() {
    if (Name)
      Tracer::instance().record(Name, StartNs, traceNowNs() - StartNs);
  }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name = nullptr; ///< nullptr = disarmed at construction.
  std::uint64_t StartNs = 0;
};

/// RAII stage instrument combining a Span with a latency Histogram record —
/// the standard way pipeline stages report themselves. One armed-mask load
/// when fully disarmed.
class StageTimer {
public:
  /// \p Stage (an SPL_STAGE entry of Metrics.def) receives the duration in
  /// nanoseconds when metrics are armed; its span name is traced when
  /// tracing is armed.
  explicit StageTimer(Histogram &Stage) {
    unsigned M = armedMask();
    if (M == 0)
      return;
    if (M & kTrace)
      Name = Stage.span();
    if (M & kMetrics)
      Hist = &Stage;
    StartNs = traceNowNs();
  }
  ~StageTimer() {
    if (!Name && !Hist)
      return;
    std::uint64_t Dur = traceNowNs() - StartNs;
    if (Hist)
      Hist->recordAlways(Dur);
    if (Name)
      Tracer::instance().record(Name, StartNs, Dur);
  }
  StageTimer(const StageTimer &) = delete;
  StageTimer &operator=(const StageTimer &) = delete;

private:
  const char *Name = nullptr;
  Histogram *Hist = nullptr;
  std::uint64_t StartNs = 0;
};

/// Tracer::instance().toJson() / reset() shorthands.
std::string traceJson();
void resetTrace();

/// If SPL_TRACE was set to a path, writes traceJson() there now (also runs
/// from the shared atexit hook). Returns false on write failure.
bool dumpTraceIfConfigured();

} // namespace spl::telemetry

#endif // SPL_TELEMETRY_TRACE_H
