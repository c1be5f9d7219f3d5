//===- tests/SearchTest.cpp - Search engine tests ------------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests of the dynamic-programming search: winners must be correct FFT
/// formulas, cheaper than naive candidates, and the keep-k machinery must
/// behave as Section 4.2 describes.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "gen/Rules.h"
#include "ir/Builder.h"
#include "ir/Transforms.h"
#include "search/DPSearch.h"
#include "search/PlanCache.h"
#include "support/Deadline.h"
#include "telemetry/Metrics.h"
#include "vm/Executor.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

using namespace spl;
using namespace spl::test;

namespace {

driver::CompilerOptions searchOptions() {
  driver::CompilerOptions Opts;
  Opts.UnrollThreshold = 16; // Keep tests fast.
  return Opts;
}

TEST(Search, SmallSearchFindsCorrectWinners) {
  Diagnostics Diags;
  search::OpCountEvaluator Eval(Diags, searchOptions());
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  search::DPSearch Search(Eval, Diags, SOpts);

  auto Best = Search.searchSmall(16);
  ASSERT_EQ(Best.size(), 4u) << Diags.dump(); // 2, 4, 8, 16.
  for (auto &[N, Cand] : Best) {
    EXPECT_LT(Cand.Formula->toMatrix().maxAbsDiff(dftMatrix(N)), 1e-9)
        << "N=" << N << ": " << Cand.Formula->print();
    EXPECT_GT(Cand.Cost, 0);
  }
  // The winners beat the DFT by definition on op count for n >= 8.
  Diagnostics D2;
  auto Naive = Eval.cost(makeDFT(8));
  ASSERT_TRUE(Naive);
  EXPECT_LT(Best[8].Cost, *Naive);
}

TEST(Search, LargeSearchKeepsKBest) {
  Diagnostics Diags;
  search::OpCountEvaluator Eval(Diags, searchOptions());
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  SOpts.KeepBest = 3;
  search::DPSearch Search(Eval, Diags, SOpts);
  Search.searchSmall(16);

  auto Entries = Search.searchLarge(128);
  ASSERT_GE(Entries.size(), 2u) << Diags.dump();
  ASSERT_LE(Entries.size(), 3u);
  // Sorted by cost.
  for (size_t I = 1; I < Entries.size(); ++I)
    EXPECT_LE(Entries[I - 1].Cost, Entries[I].Cost);
  // All are genuine F_128 formulas (verify via the VM, the dense oracle
  // would be O(n^2) but fine at 128).
  for (const auto &E : Entries)
    EXPECT_LT(E.Formula->toMatrix().maxAbsDiff(dftMatrix(128)), 1e-8)
        << E.Formula->print();
}

TEST(Search, VMEvaluatorProducesPositiveTimes) {
  Diagnostics Diags;
  search::VMTimeEvaluator Eval(Diags, searchOptions(), /*Repeats=*/1);
  auto Cost = Eval.cost(makeDFT(8));
  ASSERT_TRUE(Cost) << Diags.dump();
  EXPECT_GT(*Cost, 0);
}

TEST(Search, BestHandlesSmallAndLargeUniformly) {
  Diagnostics Diags;
  search::OpCountEvaluator Eval(Diags, searchOptions());
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  search::DPSearch Search(Eval, Diags, SOpts);
  auto B8 = Search.best(8);
  auto B64 = Search.best(64);
  ASSERT_TRUE(B8);
  ASSERT_TRUE(B64) << Diags.dump();
  EXPECT_LT(B64->Formula->toMatrix().maxAbsDiff(dftMatrix(64)), 1e-9);
}

TEST(Search, MixedRadixSizesAreSearchable) {
  // 12 = 3*4 etc.: factorCompositions handles any composite; primes fall
  // back to the DFT by definition.
  Diagnostics Diags;
  search::OpCountEvaluator Eval(Diags, searchOptions());
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 64;
  search::DPSearch Search(Eval, Diags, SOpts);
  for (std::int64_t N : {6, 12, 24, 15, 7}) {
    auto Best = Search.best(N);
    ASSERT_TRUE(Best) << Diags.dump() << " N=" << N;
    EXPECT_LT(Best->Formula->toMatrix().maxAbsDiff(dftMatrix(N)), 1e-9)
        << Best->Formula->print();
  }
  // Composite sizes beat the definition; 7 is prime so it IS the definition.
  auto B12 = Search.best(12);
  auto Naive12 = Eval.cost(makeDFT(12));
  ASSERT_TRUE(B12 && Naive12);
  EXPECT_LT(B12->Cost, *Naive12);
}

TEST(Search, RealDatatypeEvaluatorForWHT) {
  Diagnostics Diags;
  search::OpCountEvaluator Eval(Diags, searchOptions());
  Eval.setDatatype("real");
  auto Cost = Eval.cost(makeWHT(8));
  ASSERT_TRUE(Cost) << Diags.dump();
  auto C = Eval.compile(makeWHT(8));
  ASSERT_TRUE(C);
  EXPECT_EQ(C->Type, icode::DataType::Real);
  EXPECT_FALSE(C->LoweredToReal);
}

TEST(Search, KeepOneIsNeverBetterThanKeepThree) {
  // Ablation A2's invariant: with a deterministic cost model, enlarging the
  // kept set can only improve (or tie) the final winner.
  Diagnostics Diags;
  search::OpCountEvaluator Eval(Diags, searchOptions());

  search::SearchOptions K1;
  K1.MaxLeaf = 16;
  K1.KeepBest = 1;
  search::DPSearch S1(Eval, Diags, K1);
  auto E1 = S1.searchLarge(256);

  search::SearchOptions K3;
  K3.MaxLeaf = 16;
  K3.KeepBest = 3;
  search::DPSearch S3(Eval, Diags, K3);
  auto E3 = S3.searchLarge(256);

  ASSERT_FALSE(E1.empty());
  ASSERT_FALSE(E3.empty());
  EXPECT_LE(E3.front().Cost, E1.front().Cost * 1.0001);
}

TEST(Search, ExpiredDeadlineReturnsBestEffortAndCounts) {
  telemetry::setMetricsEnabled(true);
  const std::uint64_t Exceeded0 =
      telemetry::counter("search.deadline_exceeded").value();

  Diagnostics Diags;
  search::OpCountEvaluator Eval(Diags, searchOptions());
  support::Deadline Dead = support::Deadline::afterMs(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Eval.setDeadline(Dead);
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  SOpts.Deadline = Dead;
  search::DPSearch Search(Eval, Diags, SOpts);

  // Out of budget before the first candidate: the search must still hand
  // back a correct (if unoptimized) formula rather than nothing.
  auto Best = Search.best(64);
  ASSERT_TRUE(Best) << Diags.dump();
  EXPECT_LT(Best->Formula->toMatrix().maxAbsDiff(dftMatrix(64)), 1e-9)
      << Best->Formula->print();
  EXPECT_GT(telemetry::counter("search.deadline_exceeded").value(),
            Exceeded0);
  telemetry::setMetricsEnabled(false);
  telemetry::resetAllMetrics();
}

TEST(Search, TruncatedSearchNeverRecordsWisdom) {
  Diagnostics Diags;
  search::OpCountEvaluator Eval(Diags, searchOptions());
  search::PlanCache Wisdom(Diags);

  {
    support::Deadline Dead = support::Deadline::afterMs(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    Eval.setDeadline(Dead);
    search::SearchOptions SOpts;
    SOpts.MaxLeaf = 16;
    SOpts.Deadline = Dead;
    search::DPSearch Search(Eval, Diags, SOpts, &Wisdom);
    ASSERT_TRUE(Search.best(64));
    // A best-effort winner must never be persisted: a warm run would
    // inherit the truncated table as if it were the search's real answer.
    EXPECT_EQ(Wisdom.size(), 0u);
  }

  // The same search with budget records its wisdom as usual.
  Eval.setDeadline(support::Deadline());
  search::SearchOptions SOpts;
  SOpts.MaxLeaf = 16;
  search::DPSearch Search(Eval, Diags, SOpts, &Wisdom);
  ASSERT_TRUE(Search.best(64));
  EXPECT_GT(Wisdom.size(), 0u);
}

/// The opcount model with composition switched off: every Cooley-Tukey
/// candidate is lowered through the full pipeline.
class LoweringOpCountEvaluator : public search::OpCountEvaluator {
public:
  using OpCountEvaluator::OpCountEvaluator;

protected:
  std::optional<double> compose(const search::CooleyTukeyParts &) override {
    return std::nullopt;
  }
};

TEST(Search, ComposedOpCountEqualsTheFullPipeline) {
  // Every Cooley-Tukey candidate the search builds, with every kept child
  // F_s: its composed cost must be exactly the lowered program's op count
  // whenever it is loop code (N > B), and the model must decline (so the
  // search lowers it) when it is straight-line code.
  struct Config {
    std::int64_t Leaf, B, MaxN;
  };
  const Config Configs[] = {{16, 0, 1 << 14},  {16, 16, 1 << 16},
                            {16, 64, 1 << 14}, {64, 0, 1 << 14},
                            {64, 16, 1 << 14}, {64, 64, 1 << 14}};
  for (const Config &Cfg : Configs) {
    Diagnostics Diags;
    driver::CompilerOptions CO;
    CO.UnrollThreshold = Cfg.B;
    search::OpCountEvaluator Eval(Diags, CO);
    search::SearchOptions SOpts;
    SOpts.MaxLeaf = Cfg.Leaf;
    search::DPSearch Search(Eval, Diags, SOpts);
    int Composed = 0;
    for (std::int64_t N = 32; N <= Cfg.MaxN; N *= 2)
      for (std::int64_t R = 2; R <= Cfg.Leaf && R * 2 <= N; R *= 2) {
        const std::int64_t S = N / R;
        auto FR = Search.best(R);
        ASSERT_TRUE(FR) << Diags.dump();
        for (const search::Candidate &FS : Search.searchLarge(S)) {
          auto C = Eval.composedCost({R, S, FR->Cost, FS.Cost});
          if (N <= Cfg.B) {
            EXPECT_FALSE(C) << "straight-line N=" << N << " composed";
            continue;
          }
          ASSERT_TRUE(C);
          FormulaRef F =
              gen::ruleCooleyTukeyDIT(R, S, FR->Formula, FS.Formula);
          auto Lowered = Eval.compile(F);
          ASSERT_TRUE(Lowered) << Diags.dump();
          EXPECT_EQ(*C, static_cast<double>(Lowered->dynamicOpCount()))
              << "L" << Cfg.Leaf << " B" << Cfg.B << ": " << F->print();
          ++Composed;
        }
      }
    EXPECT_GT(Composed, 0);
  }
}

TEST(Search, OnlyOpCountOnComplexDataComposes) {
  Diagnostics Diags;
  const search::CooleyTukeyParts P{4, 64, 100, 2000};
  search::OpCountEvaluator Op(Diags, searchOptions());
  EXPECT_EQ(Op.composedCost(P), 64.0 * 100 + 4.0 * 2000 + 6.0 * 256);
  Op.setDatatype("real");
  EXPECT_FALSE(Op.composedCost(P));
  search::VMTimeEvaluator VM(Diags, searchOptions(), /*Repeats=*/1);
  EXPECT_FALSE(VM.composedCost(P));
  search::NativeTimeEvaluator Native(Diags, searchOptions(), /*Repeats=*/1);
  EXPECT_FALSE(Native.composedCost(P));
}

/// Searches fft sizes 2..MaxN and the rdft kernels F_{N/2} of rdft 4..MaxN
/// with \p Eval into a fresh wisdom file and returns the file's bytes.
std::string searchedWisdom(search::Evaluator &Eval, std::int64_t Leaf,
                           std::int64_t MaxN, const std::string &Name) {
  Diagnostics Diags;
  search::PlanCache Wisdom(Diags);
  for (const char *Transform : {"fft", "rdft"}) {
    search::SearchOptions SOpts;
    SOpts.MaxLeaf = Leaf;
    SOpts.Transform = Transform;
    search::DPSearch Search(Eval, Diags, SOpts, &Wisdom);
    const std::int64_t Top = std::string(Transform) == "rdft" ? MaxN / 2 : MaxN;
    for (std::int64_t N = 2; N <= Top; N *= 2)
      EXPECT_TRUE(Search.best(N)) << Diags.dump();
  }
  const std::string Path = testing::TempDir() + Name;
  std::remove(Path.c_str());
  EXPECT_TRUE(Wisdom.save(Path));
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  std::remove(Path.c_str());
  return SS.str();
}

TEST(Search, ComposingSearchWritesByteIdenticalWisdom) {
  SPL_SKIP_IF_FAULTS_ARMED();
  // Composition only changes how a cost is obtained, never its value: the
  // winners, kept lists and recorded costs are those of lowering every
  // candidate.
  const std::pair<std::int64_t, std::int64_t> LeafB[] = {
      {16, 0}, {16, 16}, {16, 64}, {64, 0}, {64, 16}};
  for (auto [Leaf, B] : LeafB) {
    driver::CompilerOptions CO;
    CO.UnrollThreshold = B;
    Diagnostics Diags;
    search::OpCountEvaluator Composing(Diags, CO);
    LoweringOpCountEvaluator Lowering(Diags, CO);
    const std::string Tag =
        "_L" + std::to_string(Leaf) + "_B" + std::to_string(B);
    telemetry::setMetricsEnabled(true);
    telemetry::Histogram &Lowered = telemetry::histogram("compile.optimize_ns");
    telemetry::Counter &Evaluated =
        telemetry::counter("search.candidates_evaluated");
    const std::uint64_t L0 = Lowered.snapshot().Count, E0 = Evaluated.value();
    const std::string Fast =
        searchedWisdom(Composing, Leaf, 1 << 14, "spl_composed_wisdom" + Tag);
    const std::uint64_t L1 = Lowered.snapshot().Count, E1 = Evaluated.value();
    const std::string Slow =
        searchedWisdom(Lowering, Leaf, 1 << 14, "spl_lowered_wisdom" + Tag);
    const std::uint64_t L2 = Lowered.snapshot().Count, E2 = Evaluated.value();
    telemetry::setMetricsEnabled(false);
    telemetry::resetAllMetrics();
    EXPECT_FALSE(Fast.empty());
    EXPECT_EQ(Fast, Slow);
    // Composed candidates still count as evaluations, but are not lowered.
    EXPECT_EQ(Composing.evaluations(), Lowering.evaluations());
    EXPECT_EQ(E1 - E0, E2 - E1);
    EXPECT_LT(L1 - L0, L2 - L1);
  }
}

} // namespace
