//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the test suites: random vectors, the dense-matrix
/// oracle check (compile a formula through a chosen pipeline configuration,
/// execute it in the VM, and compare with Formula::toMatrix), and small
/// formula factories.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TESTS_TESTUTIL_H
#define SPL_TESTS_TESTUTIL_H

#include "ir/Formula.h"
#include "support/FaultInjection.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

/// Skips the current test when an externally imposed SPL_FAULT matrix is
/// armed (the CI fault job runs the whole suite that way): tests that
/// assert healthy-path behavior — a native kernel compiling, a trial
/// passing — would otherwise report the injected fault as a failure.
/// Requires <gtest/gtest.h> at the use site.
#define SPL_SKIP_IF_FAULTS_ARMED()                                           \
  do {                                                                       \
    if (::spl::fault::armed())                                               \
      GTEST_SKIP() << "SPL_FAULT is armed; this test asserts healthy-path "  \
                      "behavior";                                            \
  } while (0)

namespace spl {
namespace test {

/// Deterministic random complex vector (unit-scale entries).
inline std::vector<Cplx> randomVector(size_t N, unsigned Seed = 12345) {
  std::mt19937 Gen(Seed);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<Cplx> V(N);
  for (auto &X : V)
    X = Cplx(Dist(Gen), Dist(Gen));
  return V;
}

/// Deterministic random real vector.
inline std::vector<double> randomRealVector(size_t N, unsigned Seed = 54321) {
  std::mt19937 Gen(Seed);
  std::uniform_real_distribution<double> Dist(-1.0, 1.0);
  std::vector<double> V(N);
  for (auto &X : V)
    X = Dist(Gen);
  return V;
}

/// Largest elementwise |a-b|.
inline double maxAbsDiff(const std::vector<Cplx> &A,
                         const std::vector<Cplx> &B) {
  if (A.size() != B.size())
    return 1e300;
  double M = 0;
  for (size_t I = 0; I != A.size(); ++I)
    M = std::max(M, std::abs(A[I] - B[I]));
  return M;
}

/// Removes the record file \p Path (a wisdom file, say) together with the
/// `<Path>.lock` its support::RecordFile locks.
inline void removeRecordFile(const std::string &Path) {
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

/// The live trial runners of this process (perf/KernelRunner.cpp): its
/// children that run a `spl-native-*` executable, read from /proc. Given a
/// runner's pid as \p Parent, the trial children of that runner.
inline std::vector<int> trialRunnerPids(int Parent = ::getpid()) {
  std::vector<int> Pids;
  std::error_code EC;
  for (const auto &E : std::filesystem::directory_iterator("/proc", EC)) {
    std::ifstream Stat(E.path() / "stat");
    std::string Line;
    if (!std::getline(Stat, Line) || Line.rfind(')') == std::string::npos)
      continue;
    std::istringstream Rest(Line.substr(Line.rfind(')') + 1));
    char State = 0;
    int PPid = 0;
    if (!(Rest >> State >> PPid) || PPid != Parent || State == 'Z')
      continue;
    const auto Exe = std::filesystem::read_symlink(E.path() / "exe", EC);
    if (!EC && Exe.filename().string().rfind("spl-native-", 0) == 0)
      Pids.push_back(std::stoi(E.path().filename().string()));
  }
  return Pids;
}

} // namespace test
} // namespace spl

#endif // SPL_TESTS_TESTUTIL_H
