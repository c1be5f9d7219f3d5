//===- telemetry/Metrics.cpp - Process-wide metric catalogue ------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "telemetry/Metrics.h"

#include "telemetry/Trace.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

namespace spl::telemetry {

//===----------------------------------------------------------------------===//
// Armed mask and env configuration
//===----------------------------------------------------------------------===//

namespace detail {
// Top bit set = "environment not parsed yet". armedMask() treats any value
// with that bit as a miss and takes the slow path exactly once per process.
std::atomic<unsigned> ArmedMask{0x80000000u};
} // namespace detail

namespace {

struct EnvConfig {
  std::mutex M;
  bool Parsed = false;
  std::string MetricsDumpPath; ///< SPL_METRICS=path target ("" = none).
  std::string TraceDumpPath;   ///< SPL_TRACE=path target ("" = none).
};

EnvConfig &envConfig() {
  static EnvConfig C;
  return C;
}

/// Interprets one telemetry env var: unset/""/"0" -> off; "1" -> on;
/// anything else -> on, and the value is a dump path.
bool parseVar(const char *Name, std::string &DumpPath) {
  const char *V = std::getenv(Name);
  if (!V || !*V || std::string(V) == "0")
    return false;
  if (std::string(V) != "1")
    DumpPath = V;
  return true;
}

void atexitDump() {
  dumpMetricsIfConfigured();
  dumpTraceIfConfigured();
}

} // namespace

unsigned detail::parseEnvOnce() {
  EnvConfig &C = envConfig();
  std::lock_guard<std::mutex> Lock(C.M);
  unsigned M = ArmedMask.load(std::memory_order_relaxed);
  if (C.Parsed)
    return M & ~0x80000000u;
  C.Parsed = true;
  unsigned Mask = 0;
  if (parseVar("SPL_METRICS", C.MetricsDumpPath))
    Mask |= kMetrics;
  if (parseVar("SPL_TRACE", C.TraceDumpPath))
    Mask |= kTrace;
  if (!C.MetricsDumpPath.empty() || !C.TraceDumpPath.empty())
    std::atexit(atexitDump);
  ArmedMask.store(Mask, std::memory_order_relaxed);
  return Mask;
}

void setMetricsEnabled(bool On) {
  unsigned M = armedMask(); // Forces the env parse so we don't lose SPL_TRACE.
  detail::ArmedMask.store(On ? (M | kMetrics) : (M & ~kMetrics),
                          std::memory_order_relaxed);
}

void setTracingEnabled(bool On) {
  unsigned M = armedMask();
  detail::ArmedMask.store(On ? (M | kTrace) : (M & ~kTrace),
                          std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

int Histogram::bucketIndex(std::uint64_t Sample) {
  if (Sample == 0)
    return 0;
  int W = std::bit_width(Sample); // 1..64 for nonzero samples.
  return std::min(W, NumBuckets - 1);
}

void Histogram::recordAlways(std::uint64_t Sample) {
  Count.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(Sample, std::memory_order_relaxed);
  Buckets[static_cast<size_t>(bucketIndex(Sample))].fetch_add(
      1, std::memory_order_relaxed);
  std::uint64_t Cur = Min.load(std::memory_order_relaxed);
  while (Sample < Cur &&
         !Min.compare_exchange_weak(Cur, Sample, std::memory_order_relaxed))
    ;
  Cur = Max.load(std::memory_order_relaxed);
  while (Sample > Cur &&
         !Max.compare_exchange_weak(Cur, Sample, std::memory_order_relaxed))
    ;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot S;
  S.Count = Count.load(std::memory_order_relaxed);
  if (S.Count == 0)
    return S; // Min stays 0 in the snapshot, not the UINT64_MAX sentinel.
  S.Sum = Sum.load(std::memory_order_relaxed);
  S.Min = Min.load(std::memory_order_relaxed);
  S.Max = Max.load(std::memory_order_relaxed);
  for (int I = 0; I != NumBuckets; ++I)
    S.Buckets[static_cast<size_t>(I)] =
        Buckets[static_cast<size_t>(I)].load(std::memory_order_relaxed);
  return S;
}

void Histogram::reset() {
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Min.store(UINT64_MAX, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
  for (auto &B : Buckets)
    B.store(0, std::memory_order_relaxed);
}

std::uint64_t HistogramSnapshot::bucketUpperBound(int I) {
  if (I <= 0)
    return 0;
  if (I >= NumBuckets - 1)
    return UINT64_MAX;
  return (std::uint64_t(1) << I) - 1;
}

std::uint64_t HistogramSnapshot::bucketLowerBound(int I) {
  if (I <= 0)
    return 0;
  return std::uint64_t(1) << (I - 1);
}

std::uint64_t HistogramSnapshot::quantile(double Q) const {
  if (Count == 0)
    return 0;
  Q = std::clamp(Q, 0.0, 1.0);
  // Rank of the requested sample, 1-based.
  std::uint64_t Rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(Q * static_cast<double>(Count))));
  Rank = std::min(Rank, Count);
  std::uint64_t Seen = 0;
  for (int I = 0; I != NumBuckets; ++I) {
    Seen += Buckets[static_cast<size_t>(I)];
    if (Seen >= Rank)
      return std::min(bucketUpperBound(I), Max);
  }
  return Max;
}

//===----------------------------------------------------------------------===//
// The catalogue
//===----------------------------------------------------------------------===//

#define SPL_COUNTER(Id, Name) constinit Counter Id{Name};
#define SPL_GAUGE(Id, Name) constinit Gauge Id{Name};
#define SPL_HISTOGRAM(Id, Name) constinit Histogram Id{Name};
#define SPL_STAGE(Id, Name, Span) constinit Histogram Id{Name, Span};
#include "telemetry/Metrics.def"

namespace {

Counter *const Counters[] = {
#define SPL_COUNTER(Id, Name) &Id,
#include "telemetry/Metrics.def"
};
Gauge *const Gauges[] = {
#define SPL_GAUGE(Id, Name) &Id,
#include "telemetry/Metrics.def"
};
Histogram *const Histograms[] = {
#define SPL_HISTOGRAM(Id, Name) &Id,
#include "telemetry/Metrics.def"
};

template <typename T, std::size_t N>
T &lookup(T *const (&All)[N], std::string_view Name, const char *Kind) {
  for (T *I : All)
    if (Name == I->name())
      return *I;
  std::fprintf(stderr, "telemetry: no %s named '%.*s' in Metrics.def\n", Kind,
               static_cast<int>(Name.size()), Name.data());
  std::abort();
}

} // namespace

Counter &counter(std::string_view Name) {
  return lookup(Counters, Name, "counter");
}

Gauge &gauge(std::string_view Name) { return lookup(Gauges, Name, "gauge"); }

Histogram &histogram(std::string_view Name) {
  return lookup(Histograms, Name, "histogram");
}

void resetAllMetrics() {
  for (Counter *C : Counters)
    C->reset();
  for (Gauge *G : Gauges)
    G->reset();
  for (Histogram *H : Histograms)
    H->reset();
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

namespace {

void appendHistogramJson(std::ostringstream &OS, const HistogramSnapshot &S) {
  OS << "{\"count\":" << S.Count << ",\"sum\":" << S.Sum
     << ",\"min\":" << S.Min << ",\"max\":" << S.Max << ",\"p50\":" << S.p50()
     << ",\"p95\":" << S.p95() << ",\"p99\":" << S.p99() << ",\"buckets\":[";
  bool First = true;
  for (int I = 0; I != HistogramSnapshot::NumBuckets; ++I) {
    std::uint64_t N = S.Buckets[static_cast<size_t>(I)];
    if (N == 0)
      continue;
    if (!First)
      OS << ",";
    First = false;
    OS << "[" << HistogramSnapshot::bucketLowerBound(I) << "," << N << "]";
  }
  OS << "]}";
}

/// 123456789 -> "123.5ms"-style human duration for the profile table.
std::string humanNs(double Ns) {
  char Buf[32];
  if (Ns < 1e3)
    std::snprintf(Buf, sizeof(Buf), "%.0fns", Ns);
  else if (Ns < 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.1fus", Ns / 1e3);
  else if (Ns < 1e9)
    std::snprintf(Buf, sizeof(Buf), "%.1fms", Ns / 1e6);
  else
    std::snprintf(Buf, sizeof(Buf), "%.2fs", Ns / 1e9);
  return Buf;
}

} // namespace

std::string metricsJson() {
  std::ostringstream OS;
  OS << "{\"counters\":{";
  const char *Sep = "";
  for (const Counter *C : Counters) {
    OS << Sep << "\"" << C->name() << "\":" << C->value();
    Sep = ",";
  }
  OS << "},\"gauges\":{";
  Sep = "";
  for (const Gauge *G : Gauges) {
    OS << Sep << "\"" << G->name() << "\":" << G->value();
    Sep = ",";
  }
  OS << "},\"histograms\":{";
  Sep = "";
  for (const Histogram *H : Histograms) {
    OS << Sep << "\"" << H->name() << "\":";
    appendHistogramJson(OS, H->snapshot());
    Sep = ",";
  }
  OS << "}}";
  return OS.str();
}

std::string profileTable() {
  std::ostringstream OS;
  char Line[256];
  std::snprintf(Line, sizeof(Line), "%-26s %8s %10s %10s %10s %10s\n", "stage",
                "count", "total", "p50", "p95", "p99");
  OS << Line;
  for (const Histogram *H : Histograms) {
    HistogramSnapshot S = H->snapshot();
    if (S.Count == 0)
      continue;
    std::snprintf(Line, sizeof(Line), "%-26s %8llu %10s %10s %10s %10s\n",
                  H->name(), static_cast<unsigned long long>(S.Count),
                  humanNs(static_cast<double>(S.Sum)).c_str(),
                  humanNs(static_cast<double>(S.p50())).c_str(),
                  humanNs(static_cast<double>(S.p95())).c_str(),
                  humanNs(static_cast<double>(S.p99())).c_str());
    OS << Line;
  }
  const char *Header = "\ncounters\n";
  for (const Counter *C : Counters) {
    if (C->value() == 0)
      continue;
    OS << Header;
    Header = "";
    std::snprintf(Line, sizeof(Line), "  %-28s %llu\n", C->name(),
                  static_cast<unsigned long long>(C->value()));
    OS << Line;
  }
  Header = "\ngauges\n";
  for (const Gauge *G : Gauges) {
    if (G->value() == 0)
      continue;
    OS << Header;
    Header = "";
    std::snprintf(Line, sizeof(Line), "  %-28s %lld\n", G->name(),
                  static_cast<long long>(G->value()));
    OS << Line;
  }
  return OS.str();
}

bool dumpMetricsIfConfigured() {
  EnvConfig &C = envConfig();
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(C.M);
    Path = C.MetricsDumpPath;
  }
  if (Path.empty())
    return true;
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << metricsJson() << "\n";
  return static_cast<bool>(OS);
}

/// Used by Trace.cpp's dumpTraceIfConfigured to learn the SPL_TRACE path
/// without re-parsing the environment.
std::string configuredTraceDumpPath() {
  armedMask(); // Ensure the env was parsed.
  EnvConfig &C = envConfig();
  std::lock_guard<std::mutex> Lock(C.M);
  return C.TraceDumpPath;
}

} // namespace spl::telemetry
