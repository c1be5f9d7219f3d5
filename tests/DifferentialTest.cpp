//===- tests/DifferentialTest.cpp - Seeded rdft differential test ------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A seeded differential test of rdft execution across the runtime. Every
/// power-of-two size from 2 to 4096 runs on every tier (native scalar,
/// native forced-vector, VM, and the dense oracle up to 1024) under
/// generated batch layouts: dense, element strides 1-4, interleaved
/// vectors (StrideX = HowMany, DistX = 1), padded distances and in-place,
/// with 1-9 vectors (partial lane groups) on 1-3 threads. Each vector must
/// agree with the rdft oracle within a relative L2 error of
/// c * log2(N) * eps (all rows up to N = 256, sampled rows above), and be
/// bit-identical to the same vector run densely on one and on three threads.
///
/// X and Y sit flush against PROT_NONE pages, alternately at their first
/// and last addressed element. Native kernels are built by the system C
/// compiler without sanitizers, and scalar kernels read user memory in
/// place, so the guard pages are what catch an access past either end.
/// Addressed elements are checked; unaddressed ones hold a NaN sentinel
/// that must survive the batch and would poison any output that read it.
///
//===----------------------------------------------------------------------===//

#include "ir/Transforms.h"
#include "runtime/Planner.h"

#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>

using namespace spl;

namespace {

/// Relative L2 bound: c * log2(N) * eps.
constexpr double kBoundC = 4.0;

/// A double array placed flush against a PROT_NONE page: after its last
/// element (FlushEnd) or before its first. A guard page also sits on the
/// other side, past the rest of the page-rounded mapping.
class GuardedBuffer {
public:
  GuardedBuffer(std::size_t Count, bool FlushEnd) : Count(Count) {
    const std::size_t Page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    const std::size_t Bytes = Count * sizeof(double);
    const std::size_t DataPages = (Bytes + Page - 1) / Page;
    Len = (DataPages + 2) * Page;
    void *M = mmap(nullptr, Len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (M == MAP_FAILED) {
      Base = nullptr;
      return;
    }
    Base = static_cast<char *>(M);
    mprotect(Base, Page, PROT_NONE);
    mprotect(Base + (DataPages + 1) * Page, Page, PROT_NONE);
    char *Lo = Base + Page;
    Data = reinterpret_cast<double *>(FlushEnd ? Lo + DataPages * Page - Bytes
                                               : Lo);
  }
  ~GuardedBuffer() {
    if (Base)
      munmap(Base, Len);
  }
  GuardedBuffer(const GuardedBuffer &) = delete;
  GuardedBuffer &operator=(const GuardedBuffer &) = delete;

  bool ok() const { return Base != nullptr; }
  double *data() { return Data; }
  std::size_t size() const { return Count; }

private:
  char *Base = nullptr;
  std::size_t Len = 0;
  std::size_t Count = 0;
  double *Data = nullptr;
};

enum class Tier { NativeScalar, NativeVector, VM, Oracle };
const char *const kTierNames[] = {"native-scalar", "native-vector", "vm",
                                  "oracle"};

runtime::PlanSpec specFor(Tier T, std::int64_t N) {
  runtime::PlanSpec S;
  S.Transform = "rdft";
  S.Size = N;
  switch (T) {
  case Tier::NativeScalar:
    S.Want = runtime::Backend::Native;
    S.Codegen = runtime::CodegenMode::Scalar;
    break;
  case Tier::NativeVector:
    S.Want = runtime::Backend::Native;
    S.Codegen = runtime::CodegenMode::Vector;
    break;
  case Tier::VM:
    S.Want = runtime::Backend::VM;
    break;
  case Tier::Oracle:
    S.Want = runtime::Backend::Oracle;
    break;
  }
  return S;
}

/// The oracle rows a check compares: every row up to N = 256, else rows 0,
/// N/2 and N-1 plus a seeded sample. Entries come from rdftEntry directly
/// (a 4096-point rdftMatrix would take 256 MiB).
struct OracleRows {
  std::vector<std::int64_t> Rows;
  std::vector<std::vector<double>> Entries;

  OracleRows(std::int64_t N, std::mt19937_64 &Gen) {
    if (N <= 256) {
      for (std::int64_t K = 0; K != N; ++K)
        Rows.push_back(K);
    } else {
      Rows = {0, N / 2, N - 1};
      std::uniform_int_distribution<std::int64_t> Pick(1, N - 2);
      for (int I = 0; I != 13; ++I)
        Rows.push_back(Pick(Gen));
    }
    for (std::int64_t K : Rows) {
      std::vector<double> Row(static_cast<std::size_t>(N));
      for (std::int64_t J = 0; J != N; ++J)
        Row[J] = rdftEntry(N, K, J);
      Entries.push_back(std::move(Row));
    }
  }

  /// Relative L2 error of \p Y against the oracle rows applied to \p X.
  double relError(const double *Y, const double *X) const {
    long double ErrSq = 0, RefSq = 0;
    for (std::size_t R = 0; R != Rows.size(); ++R) {
      long double Ref = 0;
      for (std::size_t J = 0; J != Entries[R].size(); ++J)
        Ref += static_cast<long double>(Entries[R][J]) * X[J];
      const long double D = Y[Rows[R]] - Ref;
      ErrSq += D * D;
      RefSq += Ref * Ref;
    }
    return RefSq > 0 ? static_cast<double>(std::sqrt(ErrSq / RefSq))
                     : static_cast<double>(std::sqrt(ErrSq));
  }
};

/// Doubles one side of a layout spans, first to last addressed element.
std::size_t extent(std::int64_t HowMany, std::int64_t N, std::int64_t Stride,
                   std::int64_t Dist) {
  const std::int64_t D = Dist ? Dist : (N - 1) * Stride + 1;
  return static_cast<std::size_t>((HowMany - 1) * D + (N - 1) * Stride + 1);
}

std::int64_t offsetOf(std::int64_t V, std::int64_t S, std::int64_t N,
                      std::int64_t Stride, std::int64_t Dist) {
  const std::int64_t D = Dist ? Dist : (N - 1) * Stride + 1;
  return V * D + S * Stride;
}

bool sameBits(double A, double B) { return std::memcmp(&A, &B, sizeof A) == 0; }

enum class Kind { Dense, Strided, Interleaved, PaddedDist, InPlace };
const char *const kKindNames[] = {"dense", "strided", "interleaved",
                                  "padded-dist", "in-place"};
constexpr int kKinds = 5;

TEST(RdftDifferential, EveryTierLayoutAndThreadCountAgrees) {
  Diagnostics Diags;
  runtime::PlannerOptions Opts;
  Opts.Evaluator = "opcount";
  // In-memory wisdom (never saved) lets the tiers of one size share a
  // search.
  Opts.WisdomPath = "/nonexistent/spl-differential.wisdom";
  runtime::Planner Planner(Diags, Opts);

  const double Nan = std::numeric_limits<double>::quiet_NaN();
  std::mt19937_64 Gen(20261017);
  std::uniform_real_distribution<double> Val(-1.0, 1.0);
  int Case = 0;
  double WorstRatio = 0;
  for (std::int64_t N = 2; N <= 4096; N *= 2) {
    const OracleRows Oracle(N, Gen);
    const double Bound = kBoundC * std::log2(double(N)) *
                         std::numeric_limits<double>::epsilon();
    for (Tier T : {Tier::NativeScalar, Tier::NativeVector, Tier::VM,
                   Tier::Oracle}) {
      if (T == Tier::Oracle && N > 1024)
        continue; // The dense tier holds an N x N complex matrix.
      auto P = Planner.plan(specFor(T, N));
      ASSERT_TRUE(P) << kTierNames[static_cast<int>(T)] << " rdft " << N
                     << ": " << Diags.dump();
      ASSERT_EQ(P->vectorLen(), N);
      for (int Rep = 0; Rep != 2; ++Rep, ++Case) {
        const Kind K = static_cast<Kind>(Case % kKinds);
        runtime::BatchLayout L;
        L.HowMany = std::uniform_int_distribution<std::int64_t>(1, 9)(Gen);
        const int Threads = std::uniform_int_distribution<int>(1, 3)(Gen);
        std::uniform_int_distribution<std::int64_t> Stride(1, 4);
        switch (K) {
        case Kind::Dense:
          break;
        case Kind::Strided:
          L.StrideX = Stride(Gen);
          L.StrideY = Stride(Gen);
          break;
        case Kind::Interleaved:
          L.StrideX = L.HowMany;
          L.DistX = 1;
          L.StrideY = Stride(Gen);
          break;
        case Kind::PaddedDist:
          L.StrideX = Stride(Gen);
          L.StrideY = Stride(Gen);
          L.DistX = (N - 1) * L.StrideX + 1 + Stride(Gen);
          L.DistY = (N - 1) * L.StrideY + 1 + Stride(Gen);
          break;
        case Kind::InPlace:
          L.StrideX = L.StrideY = Stride(Gen);
          break;
        }
        const bool FlushEnd = Case % 2 == 0;
        SCOPED_TRACE(::testing::Message()
                     << kTierNames[static_cast<int>(T)] << " (ran on "
                     << runtime::backendName(P->backend()) << ", "
                     << P->lanes() << " lanes) rdft " << N << " "
                     << kKindNames[static_cast<int>(K)] << " howmany "
                     << L.HowMany << " stride " << L.StrideX << "/"
                     << L.StrideY << " dist " << L.DistX << "/" << L.DistY
                     << " threads " << Threads << ", X/Y flush at "
                     << (FlushEnd ? "end/start" : "start/end"));

        // The logical input, densely packed, and its copy in the layout.
        std::vector<double> Dense(static_cast<std::size_t>(L.HowMany * N));
        for (double &V : Dense)
          V = Val(Gen);
        GuardedBuffer XB(extent(L.HowMany, N, L.StrideX, L.DistX), FlushEnd);
        GuardedBuffer YB(K == Kind::InPlace
                             ? 1
                             : extent(L.HowMany, N, L.StrideY, L.DistY),
                         !FlushEnd);
        ASSERT_TRUE(XB.ok() && YB.ok());
        std::fill(XB.data(), XB.data() + XB.size(), Nan);
        std::fill(YB.data(), YB.data() + YB.size(), Nan);
        for (std::int64_t V = 0; V != L.HowMany; ++V)
          for (std::int64_t S = 0; S != N; ++S)
            XB.data()[offsetOf(V, S, N, L.StrideX, L.DistX)] =
                Dense[V * N + S];
        double *Y = K == Kind::InPlace ? XB.data() : YB.data();
        GuardedBuffer &YBuf = K == Kind::InPlace ? XB : YB;
        ASSERT_EQ(P->executeBatch(Y, XB.data(), L, support::Deadline(),
                                  Threads),
                  runtime::ExecStatus::Ok);

        // The same vectors densely, on one and on three threads.
        GuardedBuffer D1(Dense.size(), FlushEnd), D3(Dense.size(), !FlushEnd);
        ASSERT_TRUE(D1.ok() && D3.ok());
        P->executeBatch(D1.data(), Dense.data(), L.HowMany, 1);
        P->executeBatch(D3.data(), Dense.data(), L.HowMany, 3);

        // Unaddressed output elements keep their sentinel.
        std::vector<bool> Addressed(YBuf.size(), false);
        for (std::int64_t V = 0; V != L.HowMany; ++V)
          for (std::int64_t S = 0; S != N; ++S)
            Addressed[offsetOf(V, S, N, L.StrideY, L.DistY)] = true;
        for (std::size_t I = 0; I != YBuf.size(); ++I) {
          if (!Addressed[I]) {
            ASSERT_TRUE(std::isnan(YBuf.data()[I])) << "stray write at " << I;
          }
        }

        for (std::int64_t V = 0; V != L.HowMany; ++V) {
          std::vector<double> Out(static_cast<std::size_t>(N));
          for (std::int64_t S = 0; S != N; ++S) {
            Out[S] = Y[offsetOf(V, S, N, L.StrideY, L.DistY)];
            ASSERT_TRUE(sameBits(Out[S], D1.data()[V * N + S]))
                << "vector " << V << " element " << S
                << " differs from the dense 1-thread run";
            ASSERT_TRUE(sameBits(D3.data()[V * N + S], D1.data()[V * N + S]))
                << "vector " << V << " element " << S
                << ": dense 3-thread run differs from 1-thread";
          }
          const double Rel = Oracle.relError(Out.data(), &Dense[V * N]);
          ASSERT_LE(Rel, Bound) << "vector " << V;
          WorstRatio = std::max(WorstRatio, Rel / Bound);
        }
      }
    }
  }
  RecordProperty("cases", Case);
  RecordProperty("worst_error_over_bound", std::to_string(WorstRatio));
}

} // namespace
