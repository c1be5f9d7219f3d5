//===- tests/KernelCacheTest.cpp - Persistent kernel cache tests --------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the persistent compiled-kernel cache (docs/KERNEL_CACHE.md):
/// warm hits skip the compiler entirely, corruption (flipped index bytes,
/// flipped or truncated artifacts) degrades to recompilation and the index
/// is rewritten clean, eight concurrent planners compile a cold kernel
/// exactly once, eviction respects the byte budget, a disabled cache
/// leaves no trace on disk, and failed compiles leak no temp artifacts
/// (including under SPL_FAULT=native-compile).
///
/// Plan records: a warm plan that hits one skips lowering and matches its
/// cold plan bit for bit; every plan-key input re-keys it; and a damaged
/// tables artifact, a deleted artifact or an unloadable one falls back to
/// the full path, is counted, and is rewritten by that path's insert. A v1
/// directory (two record files) costs one cold plan, and a trial maps the
/// tables descriptor its probe verified, whatever happens to the path.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/CEmitter.h"
#include "driver/Compiler.h"
#include "perf/KernelCache.h"
#include "perf/KernelRunner.h"
#include "perf/NativeCompile.h"
#include "runtime/Planner.h"
#include "support/RecordFile.h"
#include "support/StrUtil.h"
#include "telemetry/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <functional>
#include <iterator>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

using namespace spl;
using namespace spl::perf;

namespace fs = std::filesystem;

namespace {

/// A distinct trivial kernel per tag, so every test owns its cache keys.
std::string kernelSource(const std::string &Tag) {
  return "void spl_kc_" + Tag +
         "(double *Y, const double *X) { Y[0] = X[0] + 1.0; }\n";
}

std::string kernelName(const std::string &Tag) { return "spl_kc_" + Tag; }

/// Runs the compiled kernel once and checks it computes X[0] + 1.
void expectWorks(NativeModule &M) {
  double X[1] = {41.0};
  double Y[1] = {0.0};
  M.fn()(Y, X);
  EXPECT_DOUBLE_EQ(Y[0], 42.0);
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// Counter deltas around one test body.
struct Deltas {
  std::uint64_t Compiles = telemetry::counter("native.compiles").value();
  std::uint64_t Hits = telemetry::counter("kernelcache.hits").value();
  std::uint64_t Inserts = telemetry::counter("kernelcache.inserts").value();
  std::uint64_t Evictions =
      telemetry::counter("kernelcache.evictions").value();
  std::uint64_t Corrupt =
      telemetry::counter("kernelcache.corrupt_entries").value();

  std::uint64_t compiles() const {
    return telemetry::counter("native.compiles").value() - Compiles;
  }
  std::uint64_t hits() const {
    return telemetry::counter("kernelcache.hits").value() - Hits;
  }
  std::uint64_t inserts() const {
    return telemetry::counter("kernelcache.inserts").value() - Inserts;
  }
  std::uint64_t evictions() const {
    return telemetry::counter("kernelcache.evictions").value() - Evictions;
  }
  std::uint64_t corrupt() const {
    return telemetry::counter("kernelcache.corrupt_entries").value() -
           Corrupt;
  }
};

/// Each test gets a private cache directory and enabled metrics; the
/// process-wide cache configuration is restored afterwards so suites can
/// interleave.
class KernelCacheTest : public ::testing::Test {
protected:
  void SetUp() override {
    Saved = KernelCache::config();
    static std::atomic<unsigned> Seq{0};
    Dir = ::testing::TempDir() + "spl-kctest-" +
          std::to_string(static_cast<unsigned>(::getpid())) + "-" +
          std::to_string(Seq++);
    std::error_code EC;
    fs::remove_all(Dir, EC);
    telemetry::setMetricsEnabled(true);
    KernelCache::Config C;
    C.Enabled = true;
    C.Dir = Dir;
    KernelCache::configure(C);
  }

  void TearDown() override {
    KernelCache::configure(Saved);
    std::error_code EC;
    fs::remove_all(Dir, EC);
  }

  /// Shrinks the byte budget while keeping the test directory.
  void setBudget(std::uint64_t MaxBytes) {
    KernelCache::Config C;
    C.Enabled = true;
    C.Dir = Dir;
    C.MaxBytes = MaxBytes;
    KernelCache::configure(C);
  }

  std::string Dir;
  KernelCache::Config Saved;
};

TEST_F(KernelCacheTest, WarmHitSkipsCompiler) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  Deltas D;
  auto M1 = NativeModule::compile(kernelSource("warm"), kernelName("warm"));
  ASSERT_TRUE(M1);
  expectWorks(*M1);
  EXPECT_EQ(D.compiles(), 1u);
  EXPECT_EQ(D.inserts(), 1u);
  EXPECT_EQ(D.hits(), 0u);

  // Second compile of identical source: mapped from the cache, zero forks.
  auto M2 = NativeModule::compile(kernelSource("warm"), kernelName("warm"));
  ASSERT_TRUE(M2);
  expectWorks(*M2);
  EXPECT_EQ(D.compiles(), 1u);
  EXPECT_EQ(D.hits(), 1u);
}

TEST_F(KernelCacheTest, DisabledCacheLeavesNoTrace) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  KernelCache::setEnabled(false);
  Deltas D;
  auto M = NativeModule::compile(kernelSource("off"), kernelName("off"));
  ASSERT_TRUE(M);
  expectWorks(*M);
  EXPECT_EQ(D.compiles(), 1u);
  EXPECT_EQ(D.hits(), 0u);
  EXPECT_EQ(D.inserts(), 0u);
  EXPECT_FALSE(fs::exists(Dir)) << "a disabled cache must not touch disk";
}

TEST_F(KernelCacheTest, CorruptIndexLineSkippedAndRewrittenClean) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  auto M1 = NativeModule::compile(kernelSource("cidx"), kernelName("cidx"));
  ASSERT_TRUE(M1);

  // Flip a payload byte of the (only) record and append plain garbage:
  // both must fail the per-line checksum and be dropped.
  std::string Index = Dir + "/index";
  std::string Content = slurp(Index);
  ASSERT_NE(Content.find("kernel "), std::string::npos);
  Content[Content.size() - 2] ^= 0x01;
  Content += "kernel deadbeefdeadbeef not-a-real-entry 123\n";
  Content += "total garbage line\n";
  {
    std::ofstream Out(Index, std::ios::trunc | std::ios::binary);
    Out << Content;
  }

  // The tampered record is gone, so this is a miss + recompile; the insert
  // counts the corrupt lines and rewrites the index clean.
  Deltas D;
  auto M2 = NativeModule::compile(kernelSource("cidx"), kernelName("cidx"));
  ASSERT_TRUE(M2);
  expectWorks(*M2);
  EXPECT_EQ(D.compiles(), 1u);
  EXPECT_GE(D.corrupt(), 2u);

  std::string Clean = slurp(Index);
  EXPECT_EQ(Clean.find("garbage"), std::string::npos);
  EXPECT_EQ(Clean.find("deadbeef"), std::string::npos);

  // And the rewritten entry round-trips: the next compile is a pure hit.
  Deltas D2;
  auto M3 = NativeModule::compile(kernelSource("cidx"), kernelName("cidx"));
  ASSERT_TRUE(M3);
  EXPECT_EQ(D2.compiles(), 0u);
  EXPECT_EQ(D2.hits(), 1u);
}

TEST_F(KernelCacheTest, TruncatedArtifactRecompiled) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  auto M1 = NativeModule::compile(kernelSource("trunc"), kernelName("trunc"));
  ASSERT_TRUE(M1);

  std::string So;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".so")
      So = E.path().string();
  ASSERT_FALSE(So.empty());
  std::string Bytes = slurp(So);
  {
    std::ofstream Out(So, std::ios::trunc | std::ios::binary);
    Out << Bytes.substr(0, Bytes.size() / 2);
  }

  Deltas D;
  auto M2 = NativeModule::compile(kernelSource("trunc"), kernelName("trunc"));
  ASSERT_TRUE(M2);
  expectWorks(*M2);
  EXPECT_EQ(D.compiles(), 1u) << "a truncated artifact must be recompiled";
  EXPECT_GE(D.corrupt(), 1u);
  EXPECT_EQ(D.hits(), 0u);
}

TEST_F(KernelCacheTest, FlippedArtifactByteRecompiled) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  auto M1 = NativeModule::compile(kernelSource("flip"), kernelName("flip"));
  ASSERT_TRUE(M1);

  std::string So;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".so")
      So = E.path().string();
  ASSERT_FALSE(So.empty());
  // Same size, different content: only the checksum can catch this.
  std::string Bytes = slurp(So);
  Bytes[Bytes.size() / 2] ^= 0xFF;
  {
    std::ofstream Out(So, std::ios::trunc | std::ios::binary);
    Out << Bytes;
  }

  Deltas D;
  auto M2 = NativeModule::compile(kernelSource("flip"), kernelName("flip"));
  ASSERT_TRUE(M2);
  expectWorks(*M2);
  EXPECT_EQ(D.compiles(), 1u);
  EXPECT_GE(D.corrupt(), 1u);
}

TEST_F(KernelCacheTest, ConcurrentPopulateCompilesOnce) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  Deltas D;
  constexpr int N = 8;
  std::vector<std::unique_ptr<NativeModule>> Modules(N);
  std::vector<std::thread> Threads;
  for (int I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      Modules[I] =
          NativeModule::compile(kernelSource("race"), kernelName("race"));
    });
  for (auto &T : Threads)
    T.join();

  for (auto &M : Modules) {
    ASSERT_TRUE(M);
    expectWorks(*M);
  }
  // The population lock serializes the cold key: one thread compiles, the
  // other seven map the winner's artifact.
  EXPECT_EQ(D.compiles(), 1u);
  EXPECT_EQ(D.hits(), static_cast<std::uint64_t>(N - 1));
  EXPECT_EQ(D.inserts(), 1u);
}

TEST_F(KernelCacheTest, EvictionRespectsByteBudget) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  auto M1 = NativeModule::compile(kernelSource("evict_a"),
                                  kernelName("evict_a"));
  ASSERT_TRUE(M1);
  std::uint64_t SoBytes = 0;
  std::string FirstSo;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".so") {
      FirstSo = E.path().string();
      SoBytes = fs::file_size(E.path());
    }
  ASSERT_GT(SoBytes, 0u);

  // Budget for one-and-a-half artifacts: inserting a second (similar-sized)
  // kernel must push the first one out.
  setBudget(SoBytes + SoBytes / 2);
  Deltas D;
  auto M2 = NativeModule::compile(kernelSource("evict_b"),
                                  kernelName("evict_b"));
  ASSERT_TRUE(M2);
  EXPECT_EQ(D.evictions(), 1u);
  EXPECT_FALSE(fs::exists(FirstSo)) << "the LRU artifact must be evicted";

  std::uint64_t Total = 0;
  for (const auto &E : fs::directory_iterator(Dir))
    if (E.path().extension() == ".so")
      Total += fs::file_size(E.path());
  EXPECT_LE(Total, SoBytes + SoBytes / 2);

  // The survivor still hits.
  Deltas D2;
  auto M3 = NativeModule::compile(kernelSource("evict_b"),
                                  kernelName("evict_b"));
  ASSERT_TRUE(M3);
  EXPECT_EQ(D2.compiles(), 0u);
  EXPECT_EQ(D2.hits(), 1u);
}

TEST_F(KernelCacheTest, EmittedISAsSeparateScalarAndVectorKernels) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  // One program emitted at each ISA, keyed under the same name and flags,
  // must derive different content-addressed keys: the source itself spells
  // the ISA, so a scalar kernel can never shadow a vector one (or vice
  // versa) in a shared cache directory.
  Diagnostics Diags;
  driver::Compiler C(Diags);
  auto Units = C.compileSource("#subname spl_kc_isa\n(F 4)",
                               driver::CompilerOptions());
  ASSERT_TRUE(Units) << Diags.dump();
  const icode::Program &P = Units->front().Final;
  auto Emit = [&](codegen::VectorISA ISA) {
    codegen::CEmitOptions CO;
    CO.ISA = ISA;
    return codegen::emitC(P, CO);
  };
  const std::string Fn = P.SubName;
  const std::string ScalarSrc = Emit(codegen::VectorISA::Scalar);
  std::string KScalar = KernelCache::key(ScalarSrc, Fn, "-O2");
  std::string KAVX2 = KernelCache::key(Emit(codegen::VectorISA::AVX2), Fn,
                                       "-O2");
  std::string KNEON = KernelCache::key(Emit(codegen::VectorISA::NEON), Fn,
                                       "-O2");
  EXPECT_NE(KScalar, KAVX2);
  EXPECT_NE(KScalar, KNEON);
  EXPECT_NE(KAVX2, KNEON);

  // The scalar and host-vector modules populate and warm-map independently
  // end to end. NEON's 2-lane vectors build on any GCC/clang host, so they
  // stand in when the probe (or SPL_VECTOR_ISA) reports no SIMD.
  const codegen::VectorISA Vec = codegen::vectorBackendAvailable()
                                     ? codegen::detectISA()
                                     : codegen::VectorISA::NEON;
  const std::string VectorSrc = Emit(Vec);
  const std::string VectorFlags = "-O2 " + codegen::isaCompilerFlags(Vec);
  Deltas D;
  auto S1 = NativeModule::compile(ScalarSrc, Fn, nullptr, "-O2");
  auto V1 = NativeModule::compile(VectorSrc, Fn, nullptr, VectorFlags);
  ASSERT_TRUE(S1);
  ASSERT_TRUE(V1);
  EXPECT_EQ(D.compiles(), 2u) << "distinct ISAs must not share an artifact";
  EXPECT_EQ(D.inserts(), 2u);

  Deltas D2;
  auto S2 = NativeModule::compile(ScalarSrc, Fn, nullptr, "-O2");
  auto V2 = NativeModule::compile(VectorSrc, Fn, nullptr, VectorFlags);
  ASSERT_TRUE(S2);
  ASSERT_TRUE(V2);
  EXPECT_EQ(D2.compiles(), 0u);
  EXPECT_EQ(D2.hits(), 2u);

  // Each warm module runs like its cold twin.
  const int M = codegen::laneCount(Vec);
  std::vector<double> X(8 * M);
  for (size_t I = 0; I != X.size(); ++I)
    X[I] = double(I % 8) - 3.5;
  auto Run = [&](NativeModule &Mod, int Lanes) {
    std::vector<double> Y(8 * Lanes, 0.0);
    Mod.fn()(Y.data(), X.data());
    return Y;
  };
  EXPECT_EQ(Run(*S1, 1), Run(*S2, 1));
  EXPECT_EQ(Run(*V1, M), Run(*V2, M));
}

/// Failed compiles must leave the temp directory spotless — both an honest
/// compiler diagnostic and an injected compiler fault (the cache adds new
/// paths around the compile, so this is the regression net for both).
class TempHygieneTest : public KernelCacheTest {
protected:
  void SetUp() override {
    KernelCacheTest::SetUp();
    TmpDir = ::testing::TempDir() + "spl-kctmp-" +
             std::to_string(static_cast<unsigned>(::getpid()));
    std::error_code EC;
    fs::remove_all(TmpDir, EC);
    fs::create_directories(TmpDir, EC);
    ::setenv("TMPDIR", TmpDir.c_str(), 1);
  }

  void TearDown() override {
    ::unsetenv("TMPDIR");
    ::unsetenv("SPL_FAULT");
    fault::reset();
    std::error_code EC;
    fs::remove_all(TmpDir, EC);
    KernelCacheTest::TearDown();
  }

  std::size_t tmpEntries() const {
    std::size_t N = 0;
    std::error_code EC;
    for (const auto &E : fs::directory_iterator(TmpDir, EC)) {
      (void)E;
      ++N;
    }
    return N;
  }

  std::string TmpDir;
};

TEST_F(TempHygieneTest, CompileFailureLeavesNoTempArtifacts) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  std::string Error;
  auto M = NativeModule::compile("this is not C at all {",
                                 kernelName("bad"), &Error);
  EXPECT_FALSE(M);
  EXPECT_FALSE(Error.empty());
  EXPECT_EQ(tmpEntries(), 0u) << "compile failure leaked temp files";

  // The failed compile must not have populated the cache either.
  EXPECT_FALSE(fs::exists(Dir + "/index") &&
               slurp(Dir + "/index").find("kernel ") != std::string::npos);
}

TEST_F(TempHygieneTest, InjectedCompilerFaultLeavesNoTempArtifacts) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";

  ::setenv("SPL_FAULT", "native-compile", 1);
  fault::reset();
  std::string Error;
  auto M = NativeModule::compile(kernelSource("fault"), kernelName("fault"),
                                 &Error);
  EXPECT_FALSE(M);
  EXPECT_NE(Error.find("injected fault"), std::string::npos);
  EXPECT_EQ(tmpEntries(), 0u) << "fault-injected compile leaked temp files";
  ::unsetenv("SPL_FAULT");
  fault::reset();

  // With the fault disarmed the same kernel compiles and caches normally.
  Deltas D;
  auto M2 = NativeModule::compile(kernelSource("fault"), kernelName("fault"));
  ASSERT_TRUE(M2);
  expectWorks(*M2);
  EXPECT_EQ(D.inserts(), 1u);
  // The live module still owns its temp .so; destroying it must reclaim
  // the last temp artifact.
  M2.reset();
  EXPECT_EQ(tmpEntries(), 0u) << "successful compile leaked temp files";
}

/// Plan records: cold and warm plans through the runtime planner over a
/// private wisdom file and the fixture's cache directory.
class PlanRecordTest : public KernelCacheTest {
protected:
  void SetUp() override {
    KernelCacheTest::SetUp();
    Wisdom = Dir + ".wisdom";
    test::removeRecordFile(Wisdom);
  }

  void TearDown() override {
    test::removeRecordFile(Wisdom);
    KernelCacheTest::TearDown();
  }

  /// Plans \p Spec with a new Planner (a fresh wisdom object, so only the
  /// files carry state between plans) and saves its wisdom.
  std::shared_ptr<runtime::Plan> plan(const runtime::PlanSpec &Spec) {
    Diagnostics Diags;
    runtime::PlannerOptions Opts;
    Opts.WisdomPath = Wisdom;
    runtime::Planner Planner(Diags, Opts);
    auto P = Planner.plan(Spec);
    EXPECT_TRUE(P) << Diags.dump();
    Planner.saveWisdom();
    return P;
  }

  /// The plan's output on three seeded input vectors.
  static std::vector<double> run(runtime::Plan &P) {
    std::mt19937 Gen(7);
    std::uniform_real_distribution<double> Dist(-1.0, 1.0);
    std::vector<double> X(static_cast<size_t>(3 * P.vectorLen()));
    for (double &V : X)
      V = Dist(Gen);
    std::vector<double> Y(X.size(), 0.0);
    P.executeBatch(Y.data(), X.data(), 3);
    return Y;
  }

  /// The fields of the index's one plan record: "entry", the line
  /// checksum, "plan", the plan key, the tables checksum and size, the
  /// artifact key and the cost.
  std::vector<std::string> planRecord() {
    std::istringstream In(slurp(Dir + "/index"));
    std::string Line;
    std::vector<std::vector<std::string>> Plans;
    while (std::getline(In, Line)) {
      std::istringstream Fields(Line);
      std::vector<std::string> F{std::istream_iterator<std::string>(Fields),
                                 std::istream_iterator<std::string>()};
      if (F.size() > 2 && F[2] == "plan")
        Plans.push_back(F);
    }
    EXPECT_EQ(Plans.size(), 1u) << slurp(Dir + "/index");
    if (Plans.empty() || Plans.front().size() != 8)
      return std::vector<std::string>(8);
    return Plans.front();
  }

  /// The one plan record's plan key and artifact key.
  std::pair<std::string, std::string> onlyRecord() {
    const std::vector<std::string> R = planRecord();
    return {R[3], R[6]};
  }

  /// Every tables artifact in the directory has a record and vice versa.
  void expectTablesMatchRecords() {
    std::size_t Files = 0;
    for (const auto &E : fs::directory_iterator(Dir))
      if (E.path().extension() == ".tables") {
        ++Files;
        EXPECT_NE(slurp(Dir + "/index").find(E.path().stem().string()),
                  std::string::npos)
            << E.path() << " has no plan record";
      }
    EXPECT_EQ(Files, 1u);
  }

  std::string Wisdom;
};

/// Histogram sample counts around one plan.
struct Samples {
  std::uint64_t Expand = telemetry::CompileExpandNs.snapshot().Count;
  std::uint64_t Optimize = telemetry::CompileOptimizeNs.snapshot().Count;
  std::uint64_t Trial = telemetry::PlanTrialNs.snapshot().Count;

  std::uint64_t expand() const {
    return telemetry::CompileExpandNs.snapshot().Count - Expand;
  }
  std::uint64_t optimize() const {
    return telemetry::CompileOptimizeNs.snapshot().Count - Optimize;
  }
  std::uint64_t trial() const {
    return telemetry::PlanTrialNs.snapshot().Count - Trial;
  }
};

TEST_F(PlanRecordTest, WarmPlansMatchColdPlansWithoutLowering) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";
  if (KernelCache::buildId().empty())
    GTEST_SKIP() << "this build has no GNU build-id; plan records are off";

  std::vector<runtime::PlanSpec> Specs;
  auto Add = [&](const char *Transform, std::int64_t Size,
                 runtime::CodegenMode Codegen = runtime::CodegenMode::Auto) {
    runtime::PlanSpec S;
    S.Transform = Transform;
    S.Size = Size;
    S.Codegen = Codegen;
    Specs.push_back(S);
  };
  for (std::int64_t N = 2; N <= 4096; N *= 2)
    Add("fft", N);
  Add("rdft", 256);
  Add("rdft", 4096);
  Add("wht", 512);
  Add("dct2", 64);
  Add("dct3", 64);
  Add("dct4", 64);
  runtime::PlanSpec Grid;
  Grid.Shape = {32, 32};
  Specs.push_back(Grid);
  if (codegen::vectorBackendAvailable()) {
    Add("fft", 64, runtime::CodegenMode::Vector);
    Add("rdft", 256, runtime::CodegenMode::Vector);
  }

  for (const runtime::PlanSpec &Spec : Specs) {
    SCOPED_TRACE(Spec.key());
    // Cold over an empty record: the full path, which writes the record.
    Deltas D;
    Samples Cold;
    auto C = plan(Spec);
    ASSERT_TRUE(C);
    ASSERT_EQ(C->backend(), runtime::Backend::Native) << C->fallbackReason();
    EXPECT_GE(Cold.expand(), 1u);
    EXPECT_GE(Cold.optimize(), 1u);

    // Warm: the record supplies the kernel; nothing is lowered, the kernel
    // is still trialed.
    Deltas DW;
    Samples Warm;
    auto W = plan(Spec);
    ASSERT_TRUE(W);
    EXPECT_EQ(Warm.expand(), 0u);
    EXPECT_EQ(Warm.optimize(), 0u);
    EXPECT_EQ(Warm.trial(), 1u);
    EXPECT_EQ(DW.compiles(), 0u);
    EXPECT_EQ(DW.hits(), 1u);
    EXPECT_EQ(DW.corrupt(), 0u);

    EXPECT_EQ(W->backend(), runtime::Backend::Native);
    EXPECT_EQ(W->formulaText(), C->formulaText());
    EXPECT_EQ(W->searchCost(), C->searchCost());
    EXPECT_EQ(W->vectorLen(), C->vectorLen());
    EXPECT_EQ(W->layout(), C->layout());
    EXPECT_EQ(W->lanes(), C->lanes());
    EXPECT_EQ(W->codegenVariant(), C->codegenVariant());
    const std::vector<double> YC = run(*C), YW = run(*W);
    ASSERT_EQ(YC.size(), YW.size());
    EXPECT_EQ(std::memcmp(YC.data(), YW.data(), YC.size() * sizeof(double)),
              0)
        << "a record-hit kernel must compute the cold kernel's bits";

    // The lazily built program is the one the cold plan lowered.
    Samples Lazy;
    EXPECT_EQ(W->program().print(), C->program().print());
    EXPECT_EQ(Lazy.optimize(), 1u) << "only the warm plan lowers, once";
    EXPECT_EQ(&W->program(), &W->program());
  }
}

TEST_F(PlanRecordTest, LazyProgramIsBuiltOnceUnderConcurrentCallers) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available() || KernelCache::buildId().empty())
    GTEST_SKIP() << "needs a C compiler and a build-id";
  runtime::PlanSpec Spec;
  Spec.Size = 64;
  const std::string Want = plan(Spec)->program().print();
  auto W = plan(Spec); // A record hit: no program yet.
  ASSERT_TRUE(W);
  Samples S;
  std::vector<std::string> Got(4);
  std::vector<std::thread> Threads;
  for (std::size_t I = 0; I != Got.size(); ++I)
    Threads.emplace_back([&, I] { Got[I] = W->program().print(); });
  for (std::thread &T : Threads)
    T.join();
  for (const std::string &G : Got)
    EXPECT_EQ(G, Want);
  EXPECT_EQ(S.optimize(), 1u);
}

TEST_F(PlanRecordTest, WarmPlansShareOneTrialRunner) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available() || KernelCache::buildId().empty())
    GTEST_SKIP() << "needs a C compiler and a build-id";
  auto Starts = [] { return telemetry::NativeRunnerStarts.value(); };
  runtime::PlanSpec Spec;
  Spec.Size = 64;
  const std::uint64_t Before = Starts();
  auto C = plan(Spec);
  ASSERT_TRUE(C);
  ASSERT_EQ(C->backend(), runtime::Backend::Native) << C->fallbackReason();
  const std::uint64_t Cold = Starts();
  EXPECT_LE(Cold - Before, 1u) << "at most one runner for the cold plan";

  // Every warm plan's trial is a request to the runner already running.
  Samples S;
  for (int I = 0; I != 20; ++I) {
    auto W = plan(Spec);
    ASSERT_TRUE(W);
    EXPECT_EQ(W->backend(), runtime::Backend::Native) << W->fallbackReason();
  }
  EXPECT_EQ(S.trial(), 20u);
  EXPECT_EQ(Starts(), Cold) << "20 warm plans started a runner";

  // A runner killed between plans is replaced; the next plan still proves
  // its kernel and stays native.
  for (int Pid : test::trialRunnerPids())
    ::kill(Pid, SIGKILL);
  auto W = plan(Spec);
  ASSERT_TRUE(W);
  EXPECT_EQ(W->backend(), runtime::Backend::Native) << W->fallbackReason();
  EXPECT_FALSE(W->usedFallback()) << W->fallbackReason();
  EXPECT_EQ(Starts(), Cold + 1);
}

TEST_F(PlanRecordTest, DeletedCacheDirectoryDoesNotDemotePlans) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available())
    GTEST_SKIP() << "no C compiler";
  // The trial runner this process uses is its own copy, not the cache's
  // artifact, so a cache directory removed (or evicted) mid-process costs
  // recompiles, never a demotion.
  runtime::PlanSpec Spec;
  Spec.Size = 64;
  auto C = plan(Spec);
  ASSERT_TRUE(C);
  ASSERT_EQ(C->backend(), runtime::Backend::Native) << C->fallbackReason();
  const std::vector<double> Want = run(*C);

  fs::remove_all(Dir);
  test::removeRecordFile(Wisdom);
  for (std::int64_t N : {64, 128}) {
    Spec.Size = N;
    auto P = plan(Spec);
    ASSERT_TRUE(P);
    EXPECT_EQ(P->backend(), runtime::Backend::Native) << P->fallbackReason();
    EXPECT_FALSE(P->usedFallback()) << P->fallbackReason();
    if (N == 64) {
      EXPECT_EQ(run(*P), Want);
    }
  }
}

TEST_F(PlanRecordTest, V1DirectoryUpgradesAfterOneColdPlan) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available() || KernelCache::buildId().empty())
    GTEST_SKIP() << "needs a C compiler and a build-id";
  runtime::PlanSpec Spec;
  Spec.Size = 64;
  auto C = plan(Spec);
  ASSERT_TRUE(C);
  ASSERT_EQ(C->backend(), runtime::Backend::Native) << C->fallbackReason();
  const std::vector<double> Want = run(*C);

  // The same artifact and tables under v1's two record files: `index` with
  // byte-wise artifact checksums, `plans` with the plan records.
  const std::vector<std::string> R = planRecord();
  const std::string PlanKey = R[3], SoKey = R[6];
  const std::string So = slurp(Dir + "/" + SoKey + ".so");
  ASSERT_FALSE(So.empty());
  ASSERT_TRUE(support::RecordFile(Dir + "/index", LOCK_EX)
                  .write("spl-kernelcache v1", "kernel",
                         {SoKey + ' ' + fnv1aHex(So) + ' ' +
                          std::to_string(So.size())}));
  ASSERT_TRUE(support::RecordFile(Dir + "/plans", LOCK_EX)
                  .write("spl-kernelcache-plans v1", "plan",
                         {PlanKey + ' ' + SoKey + ' ' + R[4] + ' ' + R[5] +
                          ' ' + R[7]}));
  ASSERT_TRUE(fs::exists(Dir + "/" + PlanKey + ".tables"));

  // v1 reads as empty: one cold plan, which rewrites the index as v2 and
  // sweeps what v1 left behind.
  Deltas D;
  Samples S;
  auto First = plan(Spec);
  ASSERT_TRUE(First);
  EXPECT_EQ(First->backend(), runtime::Backend::Native);
  EXPECT_GE(S.optimize(), 1u);
  EXPECT_EQ(D.hits(), 0u);
  EXPECT_EQ(D.compiles(), 1u);
  EXPECT_EQ(D.corrupt(), 0u);
  EXPECT_FALSE(fs::exists(Dir + "/plans"));
  EXPECT_FALSE(fs::exists(Dir + "/plans.lock"));
  EXPECT_EQ(slurp(Dir + "/index").rfind("spl-kernelcache v2\n", 0), 0u);

  Deltas D2;
  Samples S2;
  auto Second = plan(Spec);
  ASSERT_TRUE(Second);
  EXPECT_EQ(S2.optimize(), 0u);
  EXPECT_EQ(D2.hits(), 1u);
  EXPECT_EQ(D2.compiles(), 0u);
  EXPECT_EQ(run(*First), Want);
  EXPECT_EQ(run(*Second), Want);
  expectTablesMatchRecords();
}

TEST_F(PlanRecordTest, TrialMapsTheTablesItsProbeVerified) {
  SPL_SKIP_IF_FAULTS_ARMED();
  if (!NativeModule::available() || KernelCache::buildId().empty())
    GTEST_SKIP() << "needs a C compiler and a build-id";
  runtime::PlanSpec Spec;
  Spec.Size = 64;
  auto C = plan(Spec);
  ASSERT_TRUE(C);
  ASSERT_EQ(C->backend(), runtime::Backend::Native) << C->fallbackReason();
  const std::string PlanKey = onlyRecord().first;

  // The tables file goes away after the probe read it: the trial child
  // maps the descriptor the probe verified, not the path.
  std::optional<KernelCache::PlanRecord> Record =
      KernelCache::probePlan(PlanKey);
  ASSERT_TRUE(Record);
  ASSERT_TRUE(fs::remove(Dir + "/" + PlanKey + ".tables"));
  KernelError Err;
  auto K = CompiledKernel::load(std::move(*Record), C->program().SubName,
                                C->vectorLen(), C->codegenVariant(), &Err);
  ASSERT_TRUE(K) << Err.str();
  const CompiledKernel::TrialResult T = K->trial(10.0);
  EXPECT_TRUE(T.Ok) << T.Reason;
}

TEST_F(PlanRecordTest, EveryKeyInputChangesThePlanKey) {
  KernelCache::PlanKeyInputs Base;
  Base.FormulaText = "(F 4)";
  Base.SubName = "fft4";
  Base.Datatype = "complex";
  Base.UnrollThreshold = 16;
  Base.Evaluator = "opcount";
  Base.Variant = "scalar";
  Base.ISA = "avx2";
  Base.Flags = "-O2";
  Base.Compiler = "cc | gcc 12.2.0";
  Base.Host = "0123456789abcdef";
  Base.BuildId = "8724c761a2283e174a0cc73d1bbdeb1fb9bfaa09";
  const std::string Key = KernelCache::planKey(Base);
  EXPECT_EQ(Key.size(), 16u);
  EXPECT_EQ(KernelCache::planKey(Base), Key) << "derivation is deterministic";

  // A rebuilt emitter, optimizer or lowering changes the build-id, so it
  // can never hit a kernel an older build recorded.
  auto Changed = [&](auto Mutate) {
    KernelCache::PlanKeyInputs In = Base;
    Mutate(In);
    return KernelCache::planKey(In);
  };
  using In = KernelCache::PlanKeyInputs;
  EXPECT_NE(Changed([](In &I) { I.BuildId[0] = '9'; }), Key);
  EXPECT_NE(Changed([](In &I) { I.Flags = "-O2 -mavx2 -mfma"; }), Key);
  EXPECT_NE(Changed([](In &I) { I.Compiler = "cc | gcc 13.1.0"; }), Key);
  EXPECT_NE(Changed([](In &I) { I.ISA = "neon"; }), Key);
  EXPECT_NE(Changed([](In &I) { I.UnrollThreshold = 32; }), Key);
  EXPECT_NE(Changed([](In &I) { I.Datatype = "real"; }), Key);
  EXPECT_NE(Changed([](In &I) { I.FormulaText = "(F 4) "; }), Key);
  EXPECT_NE(Changed([](In &I) { I.SubName = "fft4b"; }), Key);
  EXPECT_NE(Changed([](In &I) { I.Variant = "vector"; }), Key);
  EXPECT_NE(Changed([](In &I) { I.Evaluator = "vmtime"; }), Key);
  EXPECT_NE(Changed([](In &I) { I.Host = "fedcba9876543210"; }), Key);

  // No build-id, no plan records.
  EXPECT_EQ(Changed([](In &I) { I.BuildId.clear(); }), "");
  // This toolchain emits one by default; it reads as hex.
  const std::string &Id = KernelCache::buildId();
  EXPECT_EQ(Id.find_first_not_of("0123456789abcdef"), std::string::npos)
      << Id;
}

class DamagedPlanRecordTest : public PlanRecordTest {
protected:
  /// Plans fft 64 cold, damages the cache with \p Damage, and plans it
  /// again: the damaged record must fall back to the full path with the
  /// cold plan's output, count one corrupt entry and \p Compiles compiler
  /// runs, and leave a clean record the next plan hits.
  void check(const std::function<void(const std::string &PlanKey,
                                      const std::string &SoKey)> &Damage,
             std::uint64_t Compiles) {
    runtime::PlanSpec Spec;
    Spec.Size = 64;
    auto C = plan(Spec);
    ASSERT_TRUE(C);
    ASSERT_EQ(C->backend(), runtime::Backend::Native) << C->fallbackReason();
    const std::vector<double> Want = run(*C);
    const auto [PlanKey, SoKey] = onlyRecord();
    ASSERT_FALSE(PlanKey.empty());
    Damage(PlanKey, SoKey);

    Deltas D;
    Samples S;
    auto W = plan(Spec);
    ASSERT_TRUE(W);
    EXPECT_EQ(W->backend(), runtime::Backend::Native) << W->fallbackReason();
    EXPECT_FALSE(W->usedFallback());
    EXPECT_EQ(run(*W), Want);
    EXPECT_GE(S.optimize(), 1u) << "a damaged record takes the full path";
    EXPECT_EQ(D.compiles(), Compiles);
    EXPECT_EQ(D.corrupt(), 1u);

    // The full path's insert rewrote a clean record: the next plan hits it.
    expectTablesMatchRecords();
    Deltas D2;
    Samples S2;
    auto Again = plan(Spec);
    ASSERT_TRUE(Again);
    EXPECT_EQ(S2.optimize(), 0u);
    EXPECT_EQ(D2.hits(), 1u);
    EXPECT_EQ(D2.corrupt(), 0u);
    EXPECT_EQ(run(*Again), Want);
  }

  void SetUp() override {
    PlanRecordTest::SetUp();
    if (fault::armed() || !NativeModule::available() ||
        KernelCache::buildId().empty())
      GTEST_SKIP() << "needs a C compiler, a build-id and no SPL_FAULT";
  }
};

TEST_F(DamagedPlanRecordTest, TruncatedTablesFallBack) {
  check(
      [&](const std::string &PlanKey, const std::string &) {
        const std::string Path = Dir + "/" + PlanKey + ".tables";
        const std::string Bytes = slurp(Path);
        std::ofstream(Path, std::ios::trunc | std::ios::binary)
            << Bytes.substr(0, Bytes.size() - 3);
      },
      /*Compiles=*/0);
}

TEST_F(DamagedPlanRecordTest, FlippedTablesBitFallsBack) {
  check(
      [&](const std::string &PlanKey, const std::string &) {
        const std::string Path = Dir + "/" + PlanKey + ".tables";
        std::string Bytes = slurp(Path);
        Bytes[Bytes.size() - 5] ^= 0x10;
        std::ofstream(Path, std::ios::trunc | std::ios::binary) << Bytes;
      },
      /*Compiles=*/0);
}

TEST_F(DamagedPlanRecordTest, DeletedArtifactFallsBack) {
  check(
      [&](const std::string &, const std::string &SoKey) {
        ASSERT_TRUE(fs::remove(Dir + "/" + SoKey + ".so"));
      },
      /*Compiles=*/1);
}

TEST_F(DamagedPlanRecordTest, UnloadableArtifactFallsBack) {
  check(
      [&](const std::string &, const std::string &SoKey) {
        // Checksum-valid garbage: only dlopen can tell.
        const std::string Alien = Dir + ".alien";
        std::ofstream(Alien, std::ios::binary) << "not an ELF object\n";
        ASSERT_TRUE(KernelCache::insert(SoKey, Alien));
        std::remove(Alien.c_str());
      },
      /*Compiles=*/1);
}

} // namespace
