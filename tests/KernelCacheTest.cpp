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
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "codegen/CEmitter.h"
#include "driver/Compiler.h"
#include "perf/KernelCache.h"
#include "perf/NativeCompile.h"
#include "telemetry/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>
#include <fstream>
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

} // namespace
