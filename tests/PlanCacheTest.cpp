//===- tests/PlanCacheTest.cpp - Persistent plan cache tests ------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the wisdom subsystem: serialization round-trips, tolerance of
/// corrupt files, version/host invalidation, warm-vs-cold search equality
/// (a warm run performs zero candidate evaluations), and determinism of the
/// parallel search across thread counts.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "frontend/Parser.h"
#include "ir/Transforms.h"
#include "ir/Builder.h"
#include "search/DPSearch.h"
#include "search/PlanCache.h"
#include "support/StrUtil.h"
#include "telemetry/Metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <thread>
#include <vector>

using namespace spl;

namespace {

driver::CompilerOptions searchOptions() {
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 16; // Keep tests fast.
  return Opts;
}

std::string tempPath(const std::string &Name) {
  std::string Path = testing::TempDir() + Name;
  std::remove(Path.c_str());
  return Path;
}

search::PlanKey testKey(std::int64_t N) {
  search::PlanKey K;
  K.Transform = "fft";
  K.Size = N;
  K.Datatype = "complex";
  K.UnrollThreshold = 16;
  K.Evaluator = "opcount";
  K.Host = search::PlanCache::hostFingerprint();
  return K;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path);
  std::string Out, Line;
  while (std::getline(In, Line))
    Out += Line + "\n";
  return Out;
}

TEST(PlanCache, KeyStringIsCanonical) {
  search::PlanKey K = testKey(16);
  K.Host = "a1b2c3d4e5f60708";
  EXPECT_EQ(K.str(), "fft 16 complex B16 opcount a1b2c3d4e5f60708");
}

TEST(PlanCache, HostFingerprintIsStableHex) {
  const std::string &A = search::PlanCache::hostFingerprint();
  const std::string &B = search::PlanCache::hostFingerprint();
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.size(), 16u);
  EXPECT_EQ(A.find_first_not_of("0123456789abcdef"), std::string::npos);
}

TEST(PlanCache, SaveLoadRoundTrip) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_roundtrip");
  Diagnostics D1;
  search::PlanCache C1(D1);
  C1.insert(testKey(8),
            {{makeDFT(8)->print(), 3.5}, {makeDFT(8)->print(), 4.25}});
  C1.insert(testKey(16), {{makeDFT(16)->print(), 1.0e-6}});
  ASSERT_TRUE(C1.save(Path));

  Diagnostics D2;
  search::PlanCache C2(D2);
  ASSERT_TRUE(C2.load(Path));
  EXPECT_EQ(C2.size(), 2u);

  auto E8 = C2.lookup(testKey(8));
  ASSERT_TRUE(E8);
  ASSERT_EQ(E8->size(), 2u);
  EXPECT_EQ((*E8)[0].FormulaText, makeDFT(8)->print());
  EXPECT_DOUBLE_EQ((*E8)[0].Cost, 3.5);
  EXPECT_DOUBLE_EQ((*E8)[1].Cost, 4.25);

  auto E16 = C2.lookup(testKey(16));
  ASSERT_TRUE(E16);
  EXPECT_DOUBLE_EQ((*E16)[0].Cost, 1.0e-6);

  // The recorded text parses back to a real formula of the right size.
  Diagnostics PD;
  FormulaRef Back = parseFormulaString((*E16)[0].FormulaText, PD);
  ASSERT_TRUE(Back) << PD.dump();
  EXPECT_EQ(Back->inSize(), 16);
  EXPECT_FALSE(D2.hasErrors());
  std::remove(Path.c_str());
}

TEST(PlanCache, ConcurrentSaversLoseNoEntries) {
  SPL_SKIP_IF_FAULTS_ARMED();
  // Each saver holds one distinct key and all save to the same file at
  // once. save() is read-merge-write-rename; without the advisory flock
  // around that window, two savers merge against the same on-disk state
  // and the later rename drops the earlier writer's key. flock locks live
  // on the open file description, so same-process threads contend exactly
  // like separate processes do.
  std::string Path = tempPath("spl_wisdom_flock");
  const int N = 8;
  std::vector<std::thread> Ts;
  std::atomic<int> SaveFailures{0};
  for (int I = 0; I != N; ++I)
    Ts.emplace_back([&, I] {
      Diagnostics D;
      search::PlanCache C(D);
      C.insert(testKey(8 << I), {{makeDFT(8)->print(), 1.0 + I}});
      // Save twice: the second pass re-merges everyone else's entries too.
      for (int Pass = 0; Pass != 2; ++Pass)
        if (!C.save(Path))
          SaveFailures.fetch_add(1);
    });
  for (auto &T : Ts)
    T.join();
  EXPECT_EQ(SaveFailures.load(), 0);

  Diagnostics D2;
  search::PlanCache Reloaded(D2);
  ASSERT_TRUE(Reloaded.load(Path));
  EXPECT_EQ(Reloaded.stats().Skipped, 0u) << "corrupt lines after races";
  EXPECT_EQ(Reloaded.size(), static_cast<size_t>(N))
      << "a concurrent saver's entries were lost";
  for (int I = 0; I != N; ++I)
    EXPECT_TRUE(Reloaded.lookup(testKey(8 << I))) << "missing key " << I;
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

TEST(PlanCache, SaveMergesWithExistingFile) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_merge");
  Diagnostics D1;
  search::PlanCache C1(D1);
  C1.insert(testKey(8), {{makeDFT(8)->print(), 1.0}});
  ASSERT_TRUE(C1.save(Path));

  // A different process' cache saves a different key to the same file.
  Diagnostics D2;
  search::PlanCache C2(D2);
  C2.insert(testKey(32), {{makeDFT(32)->print(), 2.0}});
  ASSERT_TRUE(C2.save(Path));

  Diagnostics D3;
  search::PlanCache C3(D3);
  ASSERT_TRUE(C3.load(Path));
  EXPECT_EQ(C3.size(), 2u);
  EXPECT_TRUE(C3.lookup(testKey(8)));
  EXPECT_TRUE(C3.lookup(testKey(32)));

  // Memory wins over disk for the same key.
  Diagnostics D4;
  search::PlanCache C4(D4);
  C4.insert(testKey(8), {{makeDFT(8)->print(), 9.0}});
  ASSERT_TRUE(C4.save(Path));
  Diagnostics D5;
  search::PlanCache C5(D5);
  ASSERT_TRUE(C5.load(Path));
  auto E8 = C5.lookup(testKey(8));
  ASSERT_TRUE(E8);
  EXPECT_DOUBLE_EQ((*E8)[0].Cost, 9.0);
  std::remove(Path.c_str());
}

TEST(PlanCache, SaveDoesNotRepeatLoadWarnings) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_warn_once");
  Diagnostics D1;
  search::PlanCache C1(D1);
  C1.insert(testKey(8), {{makeDFT(8)->print(), 1.5}});
  ASSERT_TRUE(C1.save(Path));
  {
    std::ofstream Out(Path, std::ios::app);
    Out << "complete garbage\n";
  }

  // load() reports the bad line; the merge-on-save re-read stays silent.
  Diagnostics D2;
  search::PlanCache C2(D2);
  ASSERT_TRUE(C2.load(Path));
  C2.insert(testKey(16), {{makeDFT(16)->print(), 2.5}});
  ASSERT_TRUE(C2.save(Path));
  std::string Dump = D2.dump();
  size_t Warnings = 0;
  for (size_t At = Dump.find("' line "); At != std::string::npos;
       At = Dump.find("' line ", At + 1))
    ++Warnings;
  EXPECT_EQ(Warnings, 1u) << Dump;
  EXPECT_EQ(C2.stats().Skipped, 1u);
  std::remove(Path.c_str());
}

TEST(PlanCache, CorruptLinesAreSkippedWithDiagnostics) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_corrupt");
  Diagnostics D1;
  search::PlanCache C1(D1);
  C1.insert(testKey(8), {{makeDFT(8)->print(), 1.5}});
  ASSERT_TRUE(C1.save(Path));

  {
    std::ofstream Out(Path, std::ios::app);
    Out << "complete garbage\n";
    Out << "plan too few fields\n";
    Out << "plan fft 4 complex B16 opcount "
        << search::PlanCache::hostFingerprint() << " 0 notacost | (F 4)\n";
    Out << "plan fft 4 complex B16 opcount "
        << search::PlanCache::hostFingerprint() << " 0 1.5 |\n";
  }

  // The skips must also surface in the metric catalogue (corrupt lines
  // used to be invisible to metrics).
  telemetry::setMetricsEnabled(true);
  telemetry::resetAllMetrics();

  Diagnostics D2;
  search::PlanCache C2(D2);
  ASSERT_TRUE(C2.load(Path)); // Bad lines never fail the whole load.
  EXPECT_EQ(C2.stats().Skipped, 4u);
  EXPECT_EQ(C2.stats().Loaded, 1u);
  EXPECT_FALSE(D2.hasErrors()); // Warnings only.
  EXPECT_GE(D2.all().size(), 4u);

  EXPECT_EQ(telemetry::counter("wisdom.corrupt_lines").value(), 4u);
  EXPECT_EQ(telemetry::counter("wisdom.loaded").value(), 1u);

  // The good entry survived, and the registry counts the hit.
  auto E8 = C2.lookup(testKey(8));
  ASSERT_TRUE(E8);
  EXPECT_DOUBLE_EQ((*E8)[0].Cost, 1.5);
  EXPECT_EQ(telemetry::counter("wisdom.hits").value(), 1u);
  EXPECT_EQ(telemetry::counter("wisdom.misses").value(), 0u);

  telemetry::setMetricsEnabled(false);
  telemetry::resetAllMetrics();
  std::remove(Path.c_str());
}

TEST(PlanCache, VersionMismatchInvalidatesWholeFile) {
  // Well-formed, correctly checksummed lines under any header but the
  // current one: the retired v2 (no variant token) and v3 (a variant token
  // before the '|') formats, and an unknown future version.
  const std::string Prefix =
      "fft 8 complex B16 opcount " + search::PlanCache::hostFingerprint() +
      " 0 1.0";
  const std::pair<const char *, std::string> Files[] = {
      {"spl-wisdom v999", Prefix + " | (F 8)"},
      {"spl-wisdom v2", Prefix + " | (F 8)"},
      {"spl-wisdom v3", Prefix + " scalar | (F 8)"},
  };
  for (const auto &[Header, Payload] : Files) {
    SCOPED_TRACE(Header);
    std::string Path = tempPath("spl_wisdom_version");
    {
      std::ofstream Out(Path);
      Out << Header << '\n';
      Out << "plan " << fnv1aHex(Payload) << ' ' << Payload << '\n';
    }
    Diagnostics D;
    search::PlanCache C(D);
    EXPECT_FALSE(C.load(Path));
    EXPECT_EQ(C.size(), 0u);
    EXPECT_FALSE(D.hasErrors()); // Invalidation is a warning, not an error.
    EXPECT_GE(D.all().size(), 1u);
    std::remove(Path.c_str());
  }
}

TEST(PlanCache, HostMismatchNeverHits) {
  Diagnostics D;
  search::PlanCache C(D);
  search::PlanKey Foreign = testKey(8);
  Foreign.Host = "0123456789abcdef";
  C.insert(Foreign, {{makeDFT(8)->print(), 1.0}});
  // Same key on the running machine misses: host is part of the key, so
  // plans timed elsewhere are carried but never served here.
  ASSERT_NE(Foreign.Host, search::PlanCache::hostFingerprint());
  EXPECT_FALSE(C.lookup(testKey(8)));
  EXPECT_TRUE(C.lookup(Foreign));
}

TEST(PlanCache, WisdomFileIsVersionedText) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_header");
  Diagnostics D;
  search::PlanCache C(D);
  C.insert(testKey(8), {{makeDFT(8)->print(), 1.0}});
  ASSERT_TRUE(C.save(Path));
  std::string Text = slurp(Path);
  EXPECT_EQ(Text.rfind("spl-wisdom v4\n", 0), 0u) << Text;
  // Each plan line is "plan <16-hex-checksum> <payload>"; a v4 payload is
  // the key, the keep-best index and the cost, then "| <formula>".
  EXPECT_NE(Text.find(" fft 8 complex B16 opcount "), std::string::npos)
      << Text;
  EXPECT_NE(Text.find(" 0 1 | (F 8)"), std::string::npos) << Text;
  EXPECT_EQ(Text.find("scalar"), std::string::npos) << Text;
  size_t PlanAt = Text.find("plan ");
  ASSERT_NE(PlanAt, std::string::npos);
  std::string Checksum = Text.substr(PlanAt + 5, 16);
  EXPECT_EQ(Checksum.find_first_not_of("0123456789abcdef"),
            std::string::npos)
      << Checksum;
  std::remove(Path.c_str());
}

TEST(PlanCache, BitFlippedLinesFailChecksumAndAreRewritten) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_bitflip");
  Diagnostics D1;
  search::PlanCache C1(D1);
  C1.insert(testKey(8), {{makeDFT(8)->print(), 1.5}});
  C1.insert(testKey(16), {{makeDFT(16)->print(), 2.5}});
  ASSERT_TRUE(C1.save(Path));

  // Flip one character inside the *payload* of the size-16 line (past the
  // "plan <checksum> " prefix) and truncate a copy of the size-8 line.
  std::string Text = slurp(Path);
  size_t Line16 = Text.find(" 16 complex");
  ASSERT_NE(Line16, std::string::npos);
  Text[Line16 + 1] = Text[Line16 + 1] == '1' ? '9' : '1';
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << Text;
    Out << "plan 0123456789abcdef fft 4 complex"; // Truncated mid-line.
  }

  Diagnostics D2;
  search::PlanCache C2(D2);
  ASSERT_TRUE(C2.load(Path)); // Corruption never fails the whole load.
  EXPECT_EQ(C2.stats().Skipped, 2u);
  EXPECT_EQ(C2.stats().Loaded, 1u);
  EXPECT_FALSE(C2.lookup(testKey(16))); // The flipped entry is gone...
  auto E8 = C2.lookup(testKey(8));      // ...the intact one survives.
  ASSERT_TRUE(E8);
  EXPECT_DOUBLE_EQ((*E8)[0].Cost, 1.5);

  // save() rewrites the file clean: a fresh load sees no corruption.
  ASSERT_TRUE(C2.save(Path));
  Diagnostics D3;
  search::PlanCache C3(D3);
  ASSERT_TRUE(C3.load(Path));
  EXPECT_EQ(C3.stats().Skipped, 0u);
  EXPECT_EQ(C3.stats().Loaded, 1u);
  std::remove(Path.c_str());
}

TEST(PlanCache, WarmSearchMatchesColdAndSkipsEvaluation) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_warm");
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;

  // Cold run: search fresh, record wisdom.
  Diagnostics D1;
  search::OpCountEvaluator E1(D1, searchOptions());
  search::PlanCache W1(D1);
  search::DPSearch S1(E1, D1, SOpts, &W1);
  auto Cold = S1.searchLarge(256);
  ASSERT_FALSE(Cold.empty()) << D1.dump();
  EXPECT_GT(E1.evaluations(), 0u);
  ASSERT_TRUE(W1.save(Path));

  // Warm run: fresh engine + evaluator, wisdom loaded from disk.
  Diagnostics D2;
  search::OpCountEvaluator E2(D2, searchOptions());
  search::PlanCache W2(D2);
  ASSERT_TRUE(W2.load(Path));
  search::DPSearch S2(E2, D2, SOpts, &W2);
  auto Warm = S2.searchLarge(256);

  ASSERT_EQ(Warm.size(), Cold.size());
  for (size_t I = 0; I != Warm.size(); ++I) {
    EXPECT_EQ(Warm[I].Formula->print(), Cold[I].Formula->print());
    EXPECT_DOUBLE_EQ(Warm[I].Cost, Cold[I].Cost);
  }
  // The acceptance bar: zero candidate evaluations (hence zero timing runs)
  // for cached sizes, and the cache reports hits.
  EXPECT_EQ(E2.evaluations(), 0u);
  EXPECT_GE(W2.stats().Hits, 1u);
  EXPECT_NE(W2.summary().find("hit"), std::string::npos);

  // best() on a cached size is also free.
  auto Best = S2.best(256);
  ASSERT_TRUE(Best);
  EXPECT_EQ(Best->Formula->print(), Cold.front().Formula->print());
  EXPECT_EQ(E2.evaluations(), 0u);
  std::remove(Path.c_str());
}

TEST(PlanCache, KeepBestListWithAHoleIsAMiss) {
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_hole");
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  SOpts.KeepBest = 3;

  Diagnostics D1;
  search::OpCountEvaluator E1(D1, searchOptions());
  search::PlanCache W1(D1);
  search::DPSearch S1(E1, D1, SOpts, &W1);
  auto Cold = S1.searchLarge(256);
  ASSERT_EQ(Cold.size(), 3u) << D1.dump();
  ASSERT_TRUE(W1.save(Path));

  // Corrupt the formula of the list's index-0 line: load drops that line
  // and keeps entries 1 and 2, leaving a hole at the front of the list.
  const std::string Key = S1.wisdomKey(256).str();
  std::string Text = slurp(Path);
  size_t At = Text.find(Key + " 0 ");
  ASSERT_NE(At, std::string::npos) << Text;
  At = Text.find("| (", At);
  ASSERT_NE(At, std::string::npos);
  Text[At + 2] = '[';
  {
    std::ofstream Out(Path, std::ios::trunc);
    Out << Text;
  }

  Diagnostics D2;
  search::PlanCache W2(D2);
  ASSERT_TRUE(W2.load(Path));
  EXPECT_EQ(W2.stats().Skipped, 1u);
  EXPECT_FALSE(W2.lookup(S1.wisdomKey(256)));
  EXPECT_EQ(W2.stats().Hits, 0u);
  EXPECT_EQ(W2.stats().Misses, 1u);

  // On the miss the search runs again and finds the cold run's winner.
  search::OpCountEvaluator E2(D2, searchOptions());
  search::DPSearch S2(E2, D2, SOpts, &W2);
  auto Warm = S2.searchLarge(256);
  ASSERT_FALSE(Warm.empty()) << D2.dump();
  EXPECT_EQ(Warm.front().Formula->print(), Cold.front().Formula->print());
  EXPECT_DOUBLE_EQ(Warm.front().Cost, Cold.front().Cost);
  std::remove(Path.c_str());
}

TEST(PlanCache, LoadsGoldenWisdom) {
  // tests/golden/wisdom-v4.txt was written (a searched fft 64) before the
  // format moved onto support::RecordFile: it must keep loading as-is.
  SPL_SKIP_IF_FAULTS_ARMED();
  std::string Path = tempPath("spl_wisdom_golden");
  {
    std::ofstream Out(Path, std::ios::binary);
    Out << slurp(std::string(SPL_GOLDEN_DIR) + "/wisdom-v4.txt");
  }
  Diagnostics D;
  search::PlanCache C(D);
  ASSERT_TRUE(C.load(Path)) << D.dump();
  EXPECT_EQ(C.stats().Loaded, 10u);
  EXPECT_EQ(C.stats().Skipped, 0u);
  EXPECT_EQ(C.size(), 6u); // Sizes 2..64, the 32 and 64 lists keep 3 each.
  EXPECT_TRUE(D.all().empty()) << D.dump();

  search::PlanKey K64 = testKey(64);
  K64.Transform = "fft-L16-k3";
  K64.Host = "0c4e42ed0b5c118c"; // The host that wrote the golden.
  auto E64 = C.lookup(K64);
  ASSERT_TRUE(E64);
  ASSERT_EQ(E64->size(), 3u);
  EXPECT_DOUBLE_EQ((*E64)[0].Cost, 1360);
  Diagnostics PD;
  FormulaRef F = parseFormulaString((*E64)[0].FormulaText, PD);
  ASSERT_TRUE(F) << PD.dump();
  EXPECT_LT(F->toMatrix().maxAbsDiff(dftMatrix(64)), 1e-9);
  std::remove(Path.c_str());
}

TEST(PlanCache, WisdomKeyReflectsEvaluatorAndSpace) {
  Diagnostics D;
  search::OpCountEvaluator E(D, searchOptions());
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  SOpts.KeepBest = 3;
  search::DPSearch S(E, D, SOpts);
  search::PlanKey K = S.wisdomKey(64);
  EXPECT_EQ(K.Transform, "fft-L16-k3");
  EXPECT_EQ(K.Size, 64);
  EXPECT_EQ(K.Datatype, "complex");
  EXPECT_EQ(K.UnrollThreshold, 16);
  EXPECT_EQ(K.Evaluator, "opcount");
  EXPECT_EQ(K.Host, search::PlanCache::hostFingerprint());
}

TEST(PlanCache, StaleFormulaTextDegradesToMiss) {
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  Diagnostics D;
  search::OpCountEvaluator E(D, searchOptions());
  search::PlanCache W(D);
  search::DPSearch S(E, D, SOpts, &W);
  // Poison the exact key the search will use with unparsable text and with
  // a wrong-size formula; the search must fall back to a fresh search.
  W.insert(S.wisdomKey(8), {{"(this does not parse", 1.0}});
  auto B8 = S.best(8);
  ASSERT_TRUE(B8);
  EXPECT_LT(B8->Formula->toMatrix().maxAbsDiff(dftMatrix(8)), 1e-9);

  W.insert(S.wisdomKey(4), {{"(F 8)", 1.0}}); // Size mismatch.
  auto B4 = S.best(4);
  ASSERT_TRUE(B4);
  EXPECT_LT(B4->Formula->toMatrix().maxAbsDiff(dftMatrix(4)), 1e-9);
  EXPECT_FALSE(D.hasErrors()); // Stale wisdom warns, never errors.
}

TEST(PlanCache, SearchThreadsDoNotChangeTheWinners) {
  // The multi-thread determinism bar: same plans for any --search-threads.
  driver::CompilerOptions Opts = searchOptions();
  auto RunSearch = [&](int Threads) {
    Diagnostics D;
    search::OpCountEvaluator E(D, Opts);
    search::SearchOptions SOpts;
    SOpts.MaxLeaf = 16;
    SOpts.KeepBest = 3;
    SOpts.Threads = Threads;
    search::DPSearch S(E, D, SOpts);
    std::vector<std::string> Out;
    for (const auto &[N, Cand] : S.searchSmall(16))
      Out.push_back(std::to_string(N) + ": " + Cand.Formula->print() + " @ " +
                    std::to_string(Cand.Cost));
    for (const auto &Cand : S.searchLarge(512))
      Out.push_back(Cand.Formula->print() + " @ " + std::to_string(Cand.Cost));
    EXPECT_FALSE(D.hasErrors()) << D.dump();
    return Out;
  };

  auto Serial = RunSearch(1);
  auto Par2 = RunSearch(2);
  auto Par4 = RunSearch(4);
  EXPECT_EQ(Serial, Par2);
  EXPECT_EQ(Serial, Par4);
  ASSERT_FALSE(Serial.empty());
}

TEST(PlanCache, ParallelSearchWinnersAreCorrectFFTs) {
  Diagnostics D;
  search::OpCountEvaluator E(D, searchOptions());
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  SOpts.Threads = 4;
  search::DPSearch S(E, D, SOpts);
  auto Entries = S.searchLarge(128);
  ASSERT_FALSE(Entries.empty()) << D.dump();
  for (const auto &Cand : Entries)
    EXPECT_LT(Cand.Formula->toMatrix().maxAbsDiff(dftMatrix(128)), 1e-8)
        << Cand.Formula->print();
}

} // namespace
