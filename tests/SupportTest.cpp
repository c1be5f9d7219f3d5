//===- tests/SupportTest.cpp - Support library tests -----------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Matrix.h"
#include "support/CircuitBreaker.h"
#include "support/Deadline.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/RecordFile.h"
#include "support/StrUtil.h"
#include "support/Subprocess.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <mutex>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPL_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SPL_SANITIZED_BUILD 1
#endif
#endif

using namespace spl;

namespace {

TEST(StrUtil, FormatDoubleRoundTripsExactly) {
  std::mt19937_64 Gen(77);
  std::uniform_real_distribution<double> Uni(-1e3, 1e3);
  std::uniform_int_distribution<int> Exp(-300, 300);
  for (int I = 0; I < 2000; ++I) {
    double V = Uni(Gen) * std::pow(10.0, Exp(Gen) / 10);
    std::string S = formatDouble(V);
    double Back = std::strtod(S.c_str(), nullptr);
    EXPECT_EQ(Back, V) << S;
  }
}

TEST(StrUtil, FormatDoubleIsAFloatingToken) {
  // Every rendering must parse as a floating constant in C/Fortran (carry
  // '.', 'e' or 'E'), including integral values.
  for (double V : {1.0, -3.0, 0.0, 42.0, 1e20, 0.5, -0.25}) {
    std::string S = formatDouble(V);
    EXPECT_NE(S.find_first_of(".eE"), std::string::npos) << S;
  }
  EXPECT_EQ(formatDouble(0.0), "0.0");
  EXPECT_EQ(formatDouble(-0.0), "-0.0");
  EXPECT_EQ(formatDouble(1.0), "1.0");
}

TEST(StrUtil, FormatComplex) {
  EXPECT_EQ(formatComplex(Cplx(1.5, 0)), "1.5");
  EXPECT_EQ(formatComplex(Cplx(0, -1)), "(0.0,-1.0)");
  EXPECT_EQ(formatComplex(Cplx(-2, 3)), "(-2.0,3.0)");
}

TEST(StrUtil, JoinStartsWithToLower) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"only"}, ","), "only");
  EXPECT_TRUE(startsWith("$in_size", "$in"));
  EXPECT_FALSE(startsWith("$i", "$in"));
  EXPECT_EQ(toLower("FoRtRan77"), "fortran77");
}

TEST(Diagnostics, CountsAndFormats) {
  Diagnostics D;
  EXPECT_FALSE(D.hasErrors());
  D.warning(SourceLoc(1, 2), "something odd");
  EXPECT_FALSE(D.hasErrors());
  D.error(SourceLoc(3, 7), "bad thing");
  D.note(SourceLoc(), "context");
  EXPECT_TRUE(D.hasErrors());
  EXPECT_EQ(D.errorCount(), 1u);
  EXPECT_EQ(D.all().size(), 3u);
  std::string Dump = D.dump();
  EXPECT_NE(Dump.find("warning: 1:2: something odd"), std::string::npos);
  EXPECT_NE(Dump.find("error: 3:7: bad thing"), std::string::npos);
  EXPECT_NE(Dump.find("note: context"), std::string::npos);
  D.clear();
  EXPECT_FALSE(D.hasErrors());
  EXPECT_TRUE(D.all().empty());
}

TEST(SourceLoc, Validity) {
  EXPECT_FALSE(SourceLoc().isValid());
  EXPECT_TRUE(SourceLoc(1, 1).isValid());
  EXPECT_EQ(SourceLoc().str(), "<unknown>");
  EXPECT_EQ(SourceLoc(12, 5).str(), "12:5");
}

TEST(Deadline, UnboundedNeverExpires) {
  support::Deadline D;
  EXPECT_TRUE(D.unbounded());
  EXPECT_FALSE(D.expired());
  EXPECT_TRUE(std::isinf(D.remainingSeconds()));
  // afterMs(0) and negative budgets mean "no deadline", matching the wire
  // protocol's 0 = unbounded.
  EXPECT_TRUE(support::Deadline::afterMs(0).unbounded());
  EXPECT_TRUE(support::Deadline::afterMs(-5).unbounded());
  // Slicing an unbounded deadline stays unbounded.
  EXPECT_TRUE(D.slice(0.5).unbounded());
}

TEST(Deadline, BudgetExpires) {
  support::Deadline D = support::Deadline::afterMs(1);
  EXPECT_FALSE(D.unbounded());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(D.expired());
  EXPECT_LE(D.remainingSeconds(), 0.0); // Goes negative past the deadline.
  EXPECT_EQ(D.remainingMs(), 0);        // But the ms view clamps at zero.
}

TEST(Deadline, CancelPropagatesThroughSlices) {
  support::Deadline D = support::Deadline::afterMs(60000);
  support::Deadline Slice = D.slice(0.5);
  EXPECT_FALSE(Slice.expired());
  EXPECT_LE(Slice.remainingSeconds(), D.remainingSeconds());
  // The slice shares the parent's cancel token: cancelling either side
  // expires both immediately.
  D.cancel();
  EXPECT_TRUE(D.cancelled());
  EXPECT_TRUE(Slice.expired());
  EXPECT_EQ(Slice.remainingSeconds(), 0.0);
}

TEST(CircuitBreaker, TripsAfterConsecutiveFailuresAndProbes) {
  if (fault::armed())
    GTEST_SKIP() << "external fault matrix armed (breaker-trip would fire)";
  support::CircuitBreaker B;
  // Disabled (the default): always allow, outcomes are ignored.
  EXPECT_FALSE(B.enabled());
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  B.recordFailure();
  EXPECT_TRUE(B.allow());

  B.configure(2, 50);
  EXPECT_TRUE(B.enabled());
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  // A success between failures resets the consecutive count.
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  EXPECT_TRUE(B.allow());
  B.recordSuccess();
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.allow());
  B.recordFailure();
  // Two consecutive failures: open, and every attempt fails fast.
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow());
  EXPECT_NE(B.describe().find("circuit breaker open"), std::string::npos);

  // After the cooldown exactly one half-open probe is admitted; its
  // failure reopens the breaker with a fresh cooldown.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(B.allow());
  EXPECT_FALSE(B.allow()); // The probe is in flight; nobody else enters.
  B.recordFailure();
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow());

  // A successful probe closes it again.
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_TRUE(B.allow());
  B.recordSuccess();
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.allow());
  B.recordSuccess();
}

TEST(CircuitBreaker, TripAndResetAreImmediate) {
  if (fault::armed())
    GTEST_SKIP() << "external fault matrix armed (breaker-trip would fire)";
  support::CircuitBreaker B;
  B.configure(5, 50000);
  B.trip(); // The breaker-trip fault site calls exactly this.
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Open);
  EXPECT_FALSE(B.allow());
  B.reset();
  EXPECT_EQ(B.state(), support::CircuitBreaker::State::Closed);
  EXPECT_TRUE(B.allow());
  B.recordSuccess();
}

/// A fresh scratch path under the test temp dir (any old file and its
/// lock removed).
std::string recordPath(const std::string &Name) {
  std::string Path = testing::TempDir() + Name;
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
  return Path;
}

TEST(RecordFile, WriteThenReadRoundTrips) {
  std::string Path = recordPath("spl_records_roundtrip");
  {
    // A missing file reads as empty, with a good header.
    support::RecordFile F(Path, LOCK_EX);
    support::RecordFile::Contents C = F.read("spl-test v1", "rec");
    EXPECT_TRUE(C.HeaderOk);
    EXPECT_TRUE(C.Records.empty());
    EXPECT_TRUE(C.Rejected.empty());
    ASSERT_TRUE(F.write("spl-test v1", "rec", {"a b c", "", "x | y"}));
  }
  EXPECT_EQ(support::readFile(Path).value_or(""),
            "spl-test v1\nrec " + fnv1aHex("a b c") + " a b c\nrec " +
                fnv1aHex("") + " \nrec " + fnv1aHex("x | y") + " x | y\n");
  EXPECT_FALSE(support::readFile(Path + ".tmp")) << "temp file left behind";

  support::RecordFile F(Path, LOCK_SH);
  support::RecordFile::Contents C = F.read("spl-test v1", "rec");
  EXPECT_TRUE(C.HeaderOk);
  EXPECT_TRUE(C.Rejected.empty());
  ASSERT_EQ(C.Records.size(), 3u);
  EXPECT_EQ(C.Records[0].Line, 2u);
  EXPECT_EQ(C.Records[0].Payload, "a b c");
  EXPECT_EQ(C.Records[1].Payload, "");
  EXPECT_EQ(C.Records[2].Line, 4u);
  EXPECT_EQ(C.Records[2].Payload, "x | y");
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

TEST(RecordFile, BadLinesAreRejectedByLineNumber) {
  std::string Path = recordPath("spl_records_bad");
  std::string Good = "rec " + fnv1aHex("ok") + " ok\n";
  ASSERT_TRUE(support::replaceFile(
      Path, "spl-test v1\n" + Good + "# a comment\n\n" + // lines 2-4
                "other " + fnv1aHex("ok") + " ok\n" +    // 5: wrong tag
                "rec 0123456789abcdef ok\n" +            // 6: bad checksum
                "rec\n" +                                // 7: no checksum
                Good));                                  // 8
  support::RecordFile F(Path, LOCK_SH);
  support::RecordFile::Contents C = F.read("spl-test v1", "rec");
  EXPECT_TRUE(C.HeaderOk);
  EXPECT_EQ(C.Rejected, (std::vector<unsigned>{5, 6, 7}));
  ASSERT_EQ(C.Records.size(), 2u);
  EXPECT_EQ(C.Records[0].Line, 2u);
  EXPECT_EQ(C.Records[1].Line, 8u);

  // Any other header (or an empty file) yields nothing at all.
  C = F.read("spl-test v2", "rec");
  EXPECT_FALSE(C.HeaderOk);
  EXPECT_TRUE(C.Records.empty());
  EXPECT_TRUE(C.Rejected.empty());
  ASSERT_TRUE(support::replaceFile(Path, ""));
  EXPECT_FALSE(F.read("spl-test v1", "rec").HeaderOk);
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}

TEST(RecordFile, GoldenFilesRewriteByteForByte) {
  // Files written by the wisdom and kernel-cache writers before both moved
  // onto RecordFile, and an index of both record kinds written by the
  // kernel cache's one-index writer: reading them and writing their
  // payloads back must reproduce every byte, so the formats cannot drift.
  struct Golden {
    const char *File, *Header, *Tag;
    std::size_t Records;
  };
  for (const Golden &G :
       {Golden{"wisdom-v4.txt", "spl-wisdom v4", "plan", 10},
        Golden{"kernelcache-index-v1.txt", "spl-kernelcache v1", "kernel",
               2},
        Golden{"kernelcache-index-v2.txt", "spl-kernelcache v2", "entry",
               3}}) {
    SCOPED_TRACE(G.File);
    std::optional<std::string> Bytes =
        support::readFile(std::string(SPL_GOLDEN_DIR) + "/" + G.File);
    ASSERT_TRUE(Bytes);
    // Work on a copy: reading takes `<path>.lock` next to the file.
    std::string Path = recordPath(std::string("spl_golden_") + G.File);
    ASSERT_TRUE(support::replaceFile(Path, *Bytes));

    support::RecordFile F(Path, LOCK_EX);
    support::RecordFile::Contents C = F.read(G.Header, G.Tag);
    EXPECT_TRUE(C.HeaderOk);
    EXPECT_TRUE(C.Rejected.empty());
    ASSERT_EQ(C.Records.size(), G.Records);
    std::vector<std::string> Payloads;
    for (const auto &R : C.Records)
      Payloads.push_back(R.Payload);
    std::remove(Path.c_str());
    ASSERT_TRUE(F.write(G.Header, G.Tag, Payloads));
    EXPECT_EQ(support::readFile(Path).value_or(""), *Bytes);
    std::remove(Path.c_str());
    std::remove((Path + ".lock").c_str());
  }
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (size_t N : {0, 1, 7, 1000}) {
    for (int Width : {1, 2, 3, 64}) {
      std::vector<std::atomic<int>> Hits(N);
      parallelFor(N, Width, [&](size_t I) { Hits[I].fetch_add(1); });
      for (size_t I = 0; I != N; ++I)
        ASSERT_EQ(Hits[I].load(), 1)
            << "N=" << N << " Width=" << Width << " index " << I;
    }
  }
}

TEST(ParallelFor, WidthOneRunsInOrderOnTheCaller) {
  std::vector<size_t> Order;
  const std::thread::id Caller = std::this_thread::get_id();
  bool OnCaller = true;
  parallelFor(5, 1, [&](size_t I) {
    Order.push_back(I);
    OnCaller = OnCaller && std::this_thread::get_id() == Caller;
  });
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(OnCaller);
}

/// Runs \p Body on the calling thread and returns its result, under a
/// watchdog thread that aborts the test binary if Body has not returned
/// within \p Seconds: a deadlock fails the suite instead of hanging it.
bool underWatchdog(double Seconds, const std::function<bool()> &Body) {
  std::mutex M;
  std::condition_variable Cv;
  bool Returned = false;
  std::thread Dog([&] {
    std::unique_lock<std::mutex> Lock(M);
    if (!Cv.wait_for(Lock, std::chrono::duration<double>(Seconds),
                     [&] { return Returned; })) {
      std::fprintf(stderr, "watchdog: no return after %.0f s\n", Seconds);
      std::abort();
    }
  });
  const bool Ok = Body();
  {
    std::lock_guard<std::mutex> Lock(M);
    Returned = true;
  }
  Cv.notify_one();
  Dog.join();
  return Ok;
}

TEST(ParallelFor, NestedCallsComplete) {
  // From inside Fn, three levels deep and wider than the process pool, so
  // every pool worker can be busy in an outer call when an inner one starts.
  EXPECT_TRUE(underWatchdog(60, [] {
    std::vector<std::atomic<int>> Hits(16 * 16 * 4);
    parallelFor(16, 16, [&](size_t I) {
      parallelFor(16, 16, [&](size_t J) {
        parallelFor(4, 4, [&](size_t K) { Hits[(I * 16 + J) * 4 + K]++; });
      });
    });
    return std::all_of(Hits.begin(), Hits.end(),
                       [](const std::atomic<int> &H) { return H == 1; });
  })) << "nested parallelFor dropped or repeated an index";

  // From a job on a one-worker ThreadPool: the job's own pool can never
  // help it, and the caller must not wait for queued helper jobs.
  EXPECT_TRUE(underWatchdog(60, [] {
    std::atomic<int> Sum{0};
    {
      ThreadPool One(1);
      for (int Job = 0; Job != 4; ++Job)
        One.run([&] {
          parallelFor(1000, 64, [&](size_t) { Sum.fetch_add(1); });
        });
    } // Runs every queued job, then joins.
    return Sum == 4000;
  })) << "parallelFor from a pool job dropped or repeated an index";
}

TEST(ParallelFor, ConcurrentTinyCallsEachSeeTheirOwnIndices) {
  // Tiny calls finish before most of their helper jobs start, so helpers
  // routinely arrive late, after their call returned and its Fn is gone.
  std::atomic<int> Bad{0};
  std::vector<std::thread> Callers;
  for (int T = 0; T != 8; ++T)
    Callers.emplace_back([&Bad, T] {
      for (int Call = 0; Call != 1000; ++Call) {
        const size_t N = 1 + static_cast<size_t>(Call + T) % 8;
        std::atomic<unsigned> Seen{0};
        parallelFor(N, 2 + (Call % 3), [&](size_t I) {
          if (Seen.fetch_or(1u << I) & (1u << I))
            Bad.fetch_add(1); // An index ran twice.
        });
        if (Seen.load() != (1u << N) - 1)
          Bad.fetch_add(1);
      }
    });
  for (std::thread &C : Callers)
    C.join();
  EXPECT_EQ(Bad.load(), 0);
}

#if defined(__unix__) || defined(__APPLE__)

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

TEST(Subprocess, PropagatesExitCodeAndSignal) {
  SubprocessResult Ok = runSubprocess({"true"}, {5.0});
  EXPECT_TRUE(Ok.ok()) << Ok.describe();

  SubprocessResult Exit3 = runSubprocess({"sh", "-c", "exit 3"}, {5.0});
  EXPECT_FALSE(Exit3.ok());
  EXPECT_EQ(Exit3.ExitCode, 3);
  EXPECT_EQ(Exit3.Signal, 0);
  EXPECT_FALSE(Exit3.transient()) << "a real exit is not worth a retry";

  // Exit 2 is how the trial runner reports non-finite output.
  SubprocessResult Exit2 = runSubprocess({"sh", "-c", "exit 2"}, {5.0});
  EXPECT_EQ(Exit2.ExitCode, 2);
  EXPECT_EQ(Exit2.describe(), "exit 2");

  SubprocessResult Killed = runSubprocess({"sh", "-c", "kill -KILL $$"}, {5.0});
  EXPECT_FALSE(Killed.TimedOut);
  EXPECT_EQ(Killed.Signal, SIGKILL);
  EXPECT_TRUE(Killed.transient());

  SubprocessResult Unbounded = runSubprocess({"sh", "-c", "exit 4"}, {0});
  EXPECT_EQ(Unbounded.ExitCode, 4);
}

TEST(Subprocess, MissingBinaryIsASpawnFailure) {
  SubprocessResult R =
      runSubprocess({"/nonexistent/spl-no-such-binary", "x"}, {5.0});
  EXPECT_TRUE(R.SpawnFailed);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.transient());
  EXPECT_EQ(R.describe(), "could not spawn process");
  EXPECT_TRUE(runSubprocess({}, {5.0}).SpawnFailed);
}

TEST(Subprocess, TimeoutKillsTheWholeProcessGroup) {
  // The shell prints its background child's pid, then waits on it; the
  // deadline must take down both.
  auto T0 = std::chrono::steady_clock::now();
  SubprocessResult R =
      runSubprocess({"sh", "-c", "sleep 30 & echo $!; wait"}, {0.2});
  const double S = secondsSince(T0);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_FALSE(R.ok());
  EXPECT_TRUE(R.transient());
  EXPECT_GE(S, 0.2);
  EXPECT_LE(S, 2.0);
#if defined(__linux__)
  const int Grandchild = std::atoi(R.Output.c_str());
  ASSERT_GT(Grandchild, 0) << R.Output;
  // Killed, so gone or a zombie awaiting its new parent's reap.
  auto Alive = [&] {
    std::ifstream Stat("/proc/" + std::to_string(Grandchild) + "/stat");
    std::string Pid, Comm, State;
    return Stat >> Pid >> Comm >> State && State != "Z";
  };
  for (int I = 0; I != 200 && Alive(); ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(Alive()) << "the background sleep outlived the group kill";
#endif
}

TEST(Subprocess, CapturesOutputAndExitCode) {
  SubprocessResult R =
      runSubprocess({"sh", "-c", "echo out; echo err >&2; exit 3"}, {5.0});
  EXPECT_EQ(R.ExitCode, 3);
  EXPECT_NE(R.Output.find("out"), std::string::npos) << R.Output;
  EXPECT_NE(R.Output.find("err"), std::string::npos) << R.Output;
}

TEST(Subprocess, DescendantHoldingThePipeDoesNotMaskExit) {
  // The shell exits at once; its background sleep keeps the output pipe
  // open for two more seconds.
  auto T0 = std::chrono::steady_clock::now();
  SubprocessResult R = runSubprocess({"sh", "-c", "sleep 2 & exit 0"}, {1.0});
  const double S = secondsSince(T0);
  EXPECT_TRUE(R.ok()) << R.describe();
  EXPECT_LT(S, 1.0);
}

TEST(Subprocess, WakesOnChildExit) {
  std::vector<double> Ms;
  for (int I = 0; I < 11; ++I) {
    auto T0 = std::chrono::steady_clock::now();
    SubprocessResult R = runSubprocess({"true"}, {5.0});
    Ms.push_back(secondsSince(T0) * 1e3);
    ASSERT_TRUE(R.ok()) << R.describe();
  }
  std::nth_element(Ms.begin(), Ms.begin() + 5, Ms.end());
#if !defined(SPL_SANITIZED_BUILD)
  EXPECT_LT(Ms[5], 10.0) << "median spawn round trip in ms";
#endif
}

#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 34)
/// The fds above 2 in \p Listing, the `ls -l /proc/self/fd` of a child,
/// minus ls's own handle on that directory.
std::set<int> fdsAboveTwo(const std::string &Listing) {
  std::set<int> Fds;
  std::istringstream In(Listing);
  for (std::string Line; std::getline(In, Line);) {
    const std::size_t Arrow = Line.find(" -> ");
    if (Arrow == std::string::npos)
      continue;
    const std::string Target = Line.substr(Arrow + 4);
    if (Target.rfind("/proc/", 0) == 0 && Target.size() >= 3 &&
        Target.compare(Target.size() - 3, 3, "/fd") == 0)
      continue;
    const std::size_t Space = Line.rfind(' ', Arrow - 1);
    const int Fd = std::stoi(Line.substr(Space + 1, Arrow - Space - 1));
    if (Fd > 2)
      Fds.insert(Fd);
  }
  return Fds;
}

TEST(Subprocess, ChildInheritsNoFdAboveTwo) {
  // An fd this process leaks without close-on-exec, and another thread's
  // child holding its output pipe: neither reaches the child.
  const int Leaked = ::dup(STDERR_FILENO);
  ASSERT_GE(Leaked, 0);
  std::atomic<bool> Started{false};
  std::thread Sibling([&] {
    Started = true;
    SubprocessResult R = runSubprocess({"sleep", "1"}, {5.0});
    EXPECT_TRUE(R.ok()) << R.describe();
  });
  while (!Started)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  SubprocessResult R = runSubprocess({"ls", "-l", "/proc/self/fd"}, {5.0});
  EXPECT_TRUE(R.ok()) << R.describe() << R.Output;
  EXPECT_EQ(fdsAboveTwo(R.Output), std::set<int>{});
  ::close(Leaked);
  Sibling.join();
}

TEST(Subprocess, ChannelChildHoldsOnlyItsChannel) {
  // spawnWithChannel hands over one fd as fd 3, whatever its number here
  // and even when it is close-on-exec here; a leaked fd stays out.
  const int Leaked = ::dup(STDERR_FILENO);
  ASSERT_GE(Leaked, 0);
  int Pipe[2];
  ASSERT_EQ(::pipe2(Pipe, O_CLOEXEC), 0);
  const pid_t Pid = spawnWithChannel(
      {"sh", "-c", "exec ls -l /proc/self/fd >&3"}, Pipe[1]);
  ::close(Pipe[1]);
  ASSERT_GT(Pid, 0);
  std::string Listing;
  char Buf[4096];
  for (ssize_t N; (N = ::read(Pipe[0], Buf, sizeof Buf)) > 0;)
    Listing.append(Buf, static_cast<std::size_t>(N));
  ::close(Pipe[0]);
  int Status = 0;
  ASSERT_EQ(::waitpid(Pid, &Status, 0), Pid);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0) << Status;
  EXPECT_EQ(fdsAboveTwo(Listing), std::set<int>{3}) << Listing;
  ::close(Leaked);

  EXPECT_EQ(spawnWithChannel({"/nonexistent/spl-no-such-binary"}, 0), -1);
}
#endif // glibc 2.34

#endif // __unix__ || __APPLE__

} // namespace
