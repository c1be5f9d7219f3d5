//===- tests/TelemetryTest.cpp - Metrics and tracer tests ---------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the telemetry subsystem: the armed mask, counter/gauge
/// disarmed no-ops, histogram edge cases (empty, single sample, saturating
/// overflow bucket, 8-thread concurrent recording, quantile rank), the
/// metric catalogue (names, JSON shape, reset, profile table, lookups), the
/// span tracer ring, the StageTimer stage instrument, the per-lane-group
/// staging/kernel split of Plan execution, and the stages of a warm plan.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "perf/KernelCache.h"
#include "perf/NativeCompile.h"
#include "runtime/Planner.h"
#include "telemetry/Metrics.h"
#include "telemetry/Trace.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cctype>
#include <cstdint>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace spl;

namespace {

/// Arms metrics (and optionally tracing) for one test, restoring the fully
/// disarmed state afterwards so tests compose in any order.
struct ArmedScope {
  explicit ArmedScope(bool Metrics = true, bool Trace = false) {
    telemetry::setMetricsEnabled(Metrics);
    telemetry::setTracingEnabled(Trace);
  }
  ~ArmedScope() {
    telemetry::setMetricsEnabled(false);
    telemetry::setTracingEnabled(false);
    telemetry::resetAllMetrics();
    telemetry::resetTrace();
  }
};

TEST(Telemetry, DisarmedCounterIsANoOp) {
  telemetry::setMetricsEnabled(false);
  telemetry::Counter C;
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 0u);

  telemetry::Gauge G;
  G.set(7);
  G.add(3);
  EXPECT_EQ(G.value(), 0);

  telemetry::Histogram H;
  H.record(123);
  EXPECT_EQ(H.snapshot().Count, 0u);
}

TEST(Telemetry, ArmedCounterAccumulates) {
  ArmedScope Armed;
  telemetry::Counter C;
  C.add();
  C.add(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);

  telemetry::Gauge G;
  G.set(7);
  G.add(-3);
  EXPECT_EQ(G.value(), 4);
}

TEST(Telemetry, SetterFlagsComposeIndependently) {
  telemetry::setMetricsEnabled(true);
  telemetry::setTracingEnabled(false);
  EXPECT_TRUE(telemetry::metricsEnabled());
  EXPECT_FALSE(telemetry::tracingEnabled());
  EXPECT_TRUE(telemetry::active());

  telemetry::setMetricsEnabled(false);
  telemetry::setTracingEnabled(true);
  EXPECT_FALSE(telemetry::metricsEnabled());
  EXPECT_TRUE(telemetry::tracingEnabled());
  EXPECT_TRUE(telemetry::active());

  telemetry::setTracingEnabled(false);
  EXPECT_FALSE(telemetry::active());
  telemetry::resetTrace();
}

TEST(Histogram, EmptySnapshot) {
  telemetry::Histogram H;
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 0u);
  EXPECT_EQ(S.Sum, 0u);
  EXPECT_EQ(S.Min, 0u); // Not the internal UINT64_MAX sentinel.
  EXPECT_EQ(S.Max, 0u);
  EXPECT_EQ(S.p50(), 0u);
  EXPECT_EQ(S.p95(), 0u);
  EXPECT_EQ(S.p99(), 0u);
}

TEST(Histogram, SingleSample) {
  ArmedScope Armed;
  telemetry::Histogram H;
  H.record(1500);
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.Sum, 1500u);
  EXPECT_EQ(S.Min, 1500u);
  EXPECT_EQ(S.Max, 1500u);
  // Every quantile of a one-sample distribution is that sample (the bucket
  // upper bound is clamped to the observed Max).
  EXPECT_EQ(S.p50(), 1500u);
  EXPECT_EQ(S.p95(), 1500u);
  EXPECT_EQ(S.p99(), 1500u);
}

TEST(Histogram, ZeroSampleLandsInBucketZero) {
  ArmedScope Armed;
  telemetry::Histogram H;
  H.record(0);
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 1u);
  EXPECT_EQ(S.Buckets[0], 1u);
  EXPECT_EQ(S.p50(), 0u);
}

TEST(Histogram, BucketIndexing) {
  using H = telemetry::Histogram;
  EXPECT_EQ(H::bucketIndex(0), 0);
  EXPECT_EQ(H::bucketIndex(1), 1);
  EXPECT_EQ(H::bucketIndex(2), 2);
  EXPECT_EQ(H::bucketIndex(3), 2);
  EXPECT_EQ(H::bucketIndex(4), 3);
  EXPECT_EQ(H::bucketIndex(1023), 10);
  EXPECT_EQ(H::bucketIndex(1024), 11);
  // The top of the range saturates into the last bucket.
  EXPECT_EQ(H::bucketIndex(UINT64_MAX), H::NumBuckets - 1);
  EXPECT_EQ(H::bucketIndex(std::uint64_t(1) << 63), H::NumBuckets - 1);
}

TEST(Histogram, SaturatingOverflowBucket) {
  ArmedScope Armed;
  telemetry::Histogram H;
  // All three are wider than the second-to-last bucket; they must pile into
  // the final (saturating) bucket rather than be dropped.
  H.record(UINT64_MAX);
  H.record(std::uint64_t(1) << 63);
  H.record((std::uint64_t(1) << 63) + 12345);
  telemetry::HistogramSnapshot S = H.snapshot();
  EXPECT_EQ(S.Count, 3u);
  EXPECT_EQ(S.Buckets[telemetry::Histogram::NumBuckets - 1], 3u);
  EXPECT_EQ(S.Max, UINT64_MAX);
  EXPECT_EQ(S.Min, std::uint64_t(1) << 63);
  // Quantiles resolve to the saturating bucket, clamped to the real max.
  EXPECT_EQ(S.p99(), UINT64_MAX);
  EXPECT_EQ(
      telemetry::HistogramSnapshot::bucketUpperBound(
          telemetry::Histogram::NumBuckets - 1),
      UINT64_MAX);
}

TEST(Histogram, QuantileRankIsTheCeilingOfQTimesCount) {
  ArmedScope Armed;
  telemetry::Histogram H;
  // One sample in each of buckets 1..31: sample k lands in bucket k.
  for (int I = 0; I != 31; ++I)
    H.record(std::uint64_t(1) << I);
  telemetry::HistogramSnapshot S = H.snapshot();
  // p95 of 31 samples is the ceil(0.95 * 31) = 30th sample, not the 29th.
  EXPECT_EQ(S.p95(), telemetry::HistogramSnapshot::bucketUpperBound(30));
  EXPECT_EQ(S.p50(), telemetry::HistogramSnapshot::bucketUpperBound(16));
  EXPECT_EQ(S.quantile(1.0), S.Max);
}

TEST(Histogram, ConcurrentRecordingFromEightThreads) {
  ArmedScope Armed;
  telemetry::Histogram H;
  constexpr int NumThreads = 8;
  constexpr std::uint64_t PerThread = 1000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&H] {
      for (std::uint64_t V = 1; V <= PerThread; ++V)
        H.record(V);
    });
  for (auto &T : Threads)
    T.join();

  telemetry::HistogramSnapshot S = H.snapshot();
  // Deterministic totals: every sample lands exactly once whatever the
  // interleaving.
  EXPECT_EQ(S.Count, NumThreads * PerThread);
  EXPECT_EQ(S.Sum, NumThreads * (PerThread * (PerThread + 1) / 2));
  EXPECT_EQ(S.Min, 1u);
  EXPECT_EQ(S.Max, PerThread);
  std::uint64_t BucketTotal = 0;
  for (std::uint64_t B : S.Buckets)
    BucketTotal += B;
  EXPECT_EQ(BucketTotal, S.Count);
}

/// Every catalogue line as (kind, metric name), in file order.
struct CatalogueEntry {
  const char *Kind;
  const char *Name;
};
const CatalogueEntry Catalogue[] = {
#define SPL_COUNTER(Id, Name) {"counters", Name},
#define SPL_GAUGE(Id, Name) {"gauges", Name},
#define SPL_HISTOGRAM(Id, Name) {"histograms", Name},
#include "telemetry/Metrics.def"
};

TEST(Catalogue, NamesAreUniqueSortedAndDottedLowercase) {
  std::set<std::string> Seen;
  std::string Prev;
  for (const CatalogueEntry &E : Catalogue) {
    const std::string Name = E.Name;
    EXPECT_TRUE(Seen.insert(Name).second) << "duplicate " << Name;
    EXPECT_LT(Prev, Name) << "Metrics.def is not sorted at " << Name;
    Prev = Name;
    // Lowercase words of [a-z0-9_] joined by single dots, at least two.
    bool WordStart = true, Dotted = false;
    for (char C : Name) {
      if (C == '.') {
        EXPECT_FALSE(WordStart) << "empty word in " << Name;
        WordStart = Dotted = true;
        continue;
      }
      EXPECT_TRUE(std::islower(static_cast<unsigned char>(C)) ||
                  std::isdigit(static_cast<unsigned char>(C)) || C == '_')
          << "bad character in " << Name;
      WordStart = false;
    }
    EXPECT_TRUE(Dotted && !WordStart) << "not dotted: " << Name;
  }
}

TEST(Catalogue, FreshJsonListsEveryEntryAsZero) {
  telemetry::resetAllMetrics();
  const std::string J = telemetry::metricsJson();
  for (const CatalogueEntry &E : Catalogue) {
    const std::string Key = "\"" + std::string(E.Name) + "\":";
    const std::string Zero =
        std::string(E.Kind) == "histograms" ? "{\"count\":0," : "0";
    auto Pos = J.find(Key);
    ASSERT_NE(Pos, std::string::npos) << E.Name << " missing from " << J;
    EXPECT_EQ(J.compare(Pos + Key.size(), Zero.size(), Zero), 0) << E.Name;
    // Each entry sits in its kind's object.
    EXPECT_LT(J.find("\"" + std::string(E.Kind) + "\":{"), Pos) << E.Name;
  }
}

TEST(Catalogue, LookupByNameReturnsTheCatalogueObject) {
  EXPECT_EQ(&telemetry::counter("wisdom.hits"), &telemetry::WisdomHits);
  EXPECT_EQ(&telemetry::gauge("registry.plans"), &telemetry::RegistryPlans);
  EXPECT_EQ(&telemetry::histogram("plan.total_ns"), &telemetry::PlanTotalNs);
  EXPECT_STREQ(telemetry::PlanTotalNs.span(), "plan");
  EXPECT_EQ(telemetry::RuntimeExecuteNs.span(), nullptr);
}

TEST(CatalogueDeathTest, UnknownNameIsFatal) {
  EXPECT_DEATH(telemetry::counter("no.such.counter"), "no.such.counter");
  EXPECT_DEATH(telemetry::gauge("wisdom.hits"), "no gauge named 'wisdom.hits'");
  EXPECT_DEATH(telemetry::histogram("no.such_ns"), "no.such_ns");
}

TEST(Catalogue, JsonShape) {
  ArmedScope Armed;
  telemetry::WisdomHits.add(3);
  telemetry::RegistryPlans.set(-5);
  telemetry::RuntimeExecuteNs.record(100);

  std::string J = telemetry::metricsJson();
  EXPECT_NE(J.find("\"counters\":{"), std::string::npos);
  EXPECT_NE(J.find("\"wisdom.hits\":3"), std::string::npos);
  EXPECT_NE(J.find("\"registry.plans\":-5"), std::string::npos);
  EXPECT_NE(J.find("\"runtime.execute_ns\":{\"count\":1"), std::string::npos);
  // Histogram buckets serialize as [lower_bound, count] pairs.
  EXPECT_NE(J.find("\"buckets\":[[64,1]]"), std::string::npos);
}

TEST(Catalogue, ResetAllZeroesEverything) {
  ArmedScope Armed;
  telemetry::SearchDpHits.add(9);
  telemetry::SpldInflight.set(9);
  telemetry::PlanSearchNs.record(9);
  telemetry::resetAllMetrics();
  EXPECT_EQ(telemetry::SearchDpHits.value(), 0u);
  EXPECT_EQ(telemetry::SpldInflight.value(), 0);
  EXPECT_EQ(telemetry::PlanSearchNs.snapshot().Count, 0u);
}

TEST(Catalogue, ProfileTableListsActiveHistograms) {
  ArmedScope Armed;
  telemetry::CompileParseNs.record(2048);
  telemetry::SearchDpHits.add(4);
  std::string Table = telemetry::profileTable();
  EXPECT_NE(Table.find("compile.parse_ns"), std::string::npos);
  EXPECT_NE(Table.find("search.dp_hits"), std::string::npos);
  // Zero-count histograms and zero counters stay out of the table.
  EXPECT_EQ(Table.find("compile.expand_ns"), std::string::npos);
  EXPECT_EQ(Table.find("wisdom.hits"), std::string::npos);
}

TEST(Tracer, DisarmedSpanRecordsNothing) {
  telemetry::setTracingEnabled(false);
  telemetry::resetTrace();
  { telemetry::Span S("should-not-appear"); }
  EXPECT_EQ(telemetry::Tracer::instance().recorded(), 0u);
}

TEST(Tracer, SpansExportAsChromeTracingJson) {
  ArmedScope Armed(/*Metrics=*/false, /*Trace=*/true);
  { telemetry::Span S("outer"); }
  { telemetry::Span S("inner"); }
  EXPECT_EQ(telemetry::Tracer::instance().recorded(), 2u);

  std::string J = telemetry::traceJson();
  ASSERT_FALSE(J.empty());
  EXPECT_EQ(J.front(), '[');
  EXPECT_NE(J.find("\"name\":\"outer\""), std::string::npos);
  EXPECT_NE(J.find("\"name\":\"inner\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ts\":"), std::string::npos);
  EXPECT_NE(J.find("\"dur\":"), std::string::npos);
}

TEST(Tracer, RingKeepsOnlyTheNewestCapacityEvents) {
  ArmedScope Armed(/*Metrics=*/false, /*Trace=*/true);
  telemetry::Tracer &T = telemetry::Tracer::instance();
  const std::uint64_t Extra = 10;
  for (std::uint64_t I = 0; I != telemetry::Tracer::Capacity + Extra; ++I)
    T.record("spin", 0, 1);
  EXPECT_EQ(T.recorded(), telemetry::Tracer::Capacity + Extra);

  // The export holds exactly one ring's worth — the oldest Extra are gone.
  std::string J = T.toJson();
  size_t Events = 0;
  for (size_t Pos = J.find("\"name\""); Pos != std::string::npos;
       Pos = J.find("\"name\"", Pos + 1))
    ++Events;
  EXPECT_EQ(Events, telemetry::Tracer::Capacity);
}

TEST(StageTimer, RecordsBothHistogramAndSpan) {
  ArmedScope Armed(/*Metrics=*/true, /*Trace=*/true);
  { telemetry::StageTimer T(telemetry::CompileOptimizeNs); }
  EXPECT_EQ(telemetry::CompileOptimizeNs.snapshot().Count, 1u);
  EXPECT_NE(telemetry::traceJson().find("\"name\":\"optimize\""),
            std::string::npos);
}

TEST(StageTimer, MetricsOnlyRecordsNoSpan) {
  ArmedScope Armed(/*Metrics=*/true, /*Trace=*/false);
  telemetry::resetTrace();
  telemetry::Histogram H("test.stage_ns", "stage-under-test");
  { telemetry::StageTimer T(H); }
  EXPECT_EQ(H.snapshot().Count, 1u);
  EXPECT_EQ(telemetry::Tracer::instance().recorded(), 0u);
}

TEST(StageTimer, FullyDisarmedIsSilent) {
  telemetry::setMetricsEnabled(false);
  telemetry::setTracingEnabled(false);
  telemetry::resetTrace();
  telemetry::Histogram H("test.silent_ns", "silent-stage");
  { telemetry::StageTimer T(H); }
  EXPECT_EQ(H.snapshot().Count, 0u);
  EXPECT_EQ(telemetry::Tracer::instance().recorded(), 0u);
}

TEST(RuntimeTelemetry, ArmedBatchTimesStagingAndKernelPerLaneGroup) {
  // One runtime.stage_ns and one runtime.kernel_ns sample per lane group
  // of an armed batch (a forced-vector plan packs several vectors per
  // group where the host has SIMD), and none while disarmed.
  Diagnostics Diags;
  runtime::PlannerOptions Opts;
  Opts.Evaluator = "opcount";
  Opts.UseWisdom = false;
  runtime::Planner Planner(Diags, Opts);
  runtime::PlanSpec Spec;
  Spec.Transform = "rdft";
  Spec.Size = 64;
  Spec.Codegen = runtime::CodegenMode::Vector;
  auto P = Planner.plan(Spec);
  ASSERT_TRUE(P) << Diags.dump();
  const std::int64_t Count = 9;
  std::vector<double> X(static_cast<size_t>(Count * P->vectorLen()), 0.25);
  std::vector<double> Y(X.size());

  telemetry::setMetricsEnabled(false);
  telemetry::resetAllMetrics();
  P->executeBatch(Y.data(), X.data(), Count);
  EXPECT_EQ(telemetry::RuntimeStageNs.snapshot().Count, 0u);
  EXPECT_EQ(telemetry::RuntimeKernelNs.snapshot().Count, 0u);

  ArmedScope Armed;
  telemetry::resetAllMetrics();
  P->executeBatch(Y.data(), X.data(), Count, /*Threads=*/2);
  const std::uint64_t Groups = (Count + P->lanes() - 1) / P->lanes();
  EXPECT_EQ(telemetry::RuntimeStageNs.snapshot().Count, Groups);
  EXPECT_EQ(telemetry::RuntimeKernelNs.snapshot().Count, Groups);
}

TEST(PlanTelemetry, WarmNativePlanRecordsOneSampleOfEachStage) {
  // A warm plan is search + cache probe + dlopen + trial, one span each,
  // and lowers nothing: its kernel comes from a kernel-cache plan record.
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!perf::NativeModule::available())
    GTEST_SKIP() << "no C compiler";
  if (perf::KernelCache::buildId().empty())
    GTEST_SKIP() << "this build has no GNU build-id; plan records are off";
  const perf::KernelCache::Config Saved = perf::KernelCache::config();
  const std::string Stem = ::testing::TempDir() + "spl-telemetry-warm-" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(Stem + ".cache");
  runtime::PlannerOptions Opts;
  Opts.WisdomPath = Stem + ".wisdom";
  Opts.KernelCacheDir = Stem + ".cache";
  runtime::PlanSpec Spec;
  Spec.Size = 256;
  auto PlanOnce = [&] {
    Diagnostics Diags;
    runtime::Planner Planner(Diags, Opts);
    auto P = Planner.plan(Spec);
    EXPECT_TRUE(P) << Diags.dump();
    Planner.saveWisdom();
    return P;
  };

  ArmedScope Armed;
  ASSERT_TRUE(PlanOnce()); // Cold: fills wisdom and the kernel cache.
  telemetry::resetAllMetrics();
  auto P = PlanOnce();
  ASSERT_TRUE(P);
  EXPECT_EQ(P->backend(), runtime::Backend::Native);
  EXPECT_EQ(telemetry::PlanSearchNs.snapshot().Count, 1u);
  EXPECT_EQ(telemetry::KernelcacheProbeNs.snapshot().Count, 1u);
  EXPECT_EQ(telemetry::PlanDlopenNs.snapshot().Count, 1u);
  EXPECT_EQ(telemetry::PlanTrialNs.snapshot().Count, 1u);
  EXPECT_EQ(telemetry::CompileExpandNs.snapshot().Count, 0u);
  EXPECT_EQ(telemetry::CompileOptimizeNs.snapshot().Count, 0u);

  perf::KernelCache::configure(Saved);
  std::filesystem::remove_all(Stem + ".cache");
  test::removeRecordFile(Stem + ".wisdom");
}

} // namespace
