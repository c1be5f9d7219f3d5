//===- support/Subprocess.h - Guarded process execution ---------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded, observable child-process execution. The compile-time-search loop
/// runs thousands of generated kernels through an external C compiler; a
/// hanging or crashing invocation must cost a timeout, not a planner. This
/// module replaces bare std::system() with fork/exec plus:
///
///   - a wall-clock timeout with kill-on-expiry (the whole process group
///     dies, so a compiler's own children cannot linger),
///   - captured, size-capped combined stdout/stderr,
///   - a typed result distinguishing exit status, terminating signal,
///     timeout, and spawn failure.
///
/// runGuarded() forks a child around an arbitrary callable so compiled
/// kernels can be proven in isolation: a kernel that segfaults or spins
/// takes down only the disposable child.
///
/// Both share one exit-driven wait. Every child holds the write end of a
/// close-on-exec pipe (runSubprocess's carries the output; runGuarded's
/// carries nothing), so the parent's poll() wakes when the child exits and
/// closes it, not on a timer tick. A descendant or a concurrently forked
/// sibling can keep a copy of that write end open, so each quiet poll
/// slice (50 ms under a deadline, 200 ms without) also probes the child
/// with waitpid(WNOHANG) and returns its real status once it is reaped.
/// After EOF the child is reaped with a geometric backoff from 50 us, so a
/// prompt exit costs microseconds rather than a sleep.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_SUBPROCESS_H
#define SPL_SUPPORT_SUBPROCESS_H

#include <functional>
#include <string>
#include <vector>

namespace spl {

/// What happened to a spawned child process.
struct SubprocessResult {
  int ExitCode = -1;       ///< Valid when the child exited normally.
  int Signal = 0;          ///< Terminating signal; 0 when none.
  bool TimedOut = false;   ///< Killed because the deadline expired.
  bool SpawnFailed = false;///< fork/exec itself failed (or no POSIX APIs).
  std::string Output;      ///< Combined stdout+stderr, capped.

  /// True only for a clean, in-time exit 0.
  bool ok() const {
    return !TimedOut && !SpawnFailed && Signal == 0 && ExitCode == 0;
  }

  /// True for failures worth one retry: the child was killed by a signal or
  /// by the timeout (compiler crash / machine hiccup), as opposed to a
  /// deterministic nonzero exit (a real diagnostic).
  bool transient() const { return !SpawnFailed && (TimedOut || Signal != 0); }

  /// One-line status, e.g. "exit 1", "killed by signal 11",
  /// "timed out after 2.5 s".
  std::string describe() const;
};

/// Knobs for runSubprocess.
struct SubprocessOptions {
  double TimeoutSeconds = 0;          ///< 0: no deadline.
  std::size_t MaxOutputBytes = 65536; ///< Output capture cap.
};

/// Runs \p Argv (argv[0] resolved through PATH) with captured output and an
/// optional deadline. Never throws; every failure mode is in the result.
SubprocessResult runSubprocess(const std::vector<std::string> &Argv,
                               const SubprocessOptions &Opts = {});

/// Outcome of runGuarded (no output capture; the child shares the parent's
/// stdio).
struct GuardedResult {
  int ExitCode = -1;
  int Signal = 0;
  bool TimedOut = false;
  bool SpawnFailed = false;

  bool ok() const {
    return !TimedOut && !SpawnFailed && Signal == 0 && ExitCode == 0;
  }
  std::string describe() const;
};

/// Runs \p Fn in a forked child bounded by \p TimeoutSeconds (0: none) and
/// reports how the child died. The child's exit status is Fn's return value.
GuardedResult runGuarded(const std::function<int()> &Fn,
                         double TimeoutSeconds);

/// Splits a command-line fragment on whitespace: "-O2 -fPIC" -> {-O2, -fPIC}.
/// No quoting rules — this is for compiler-flag strings, not shell text.
std::vector<std::string> splitCommandArgs(const std::string &S);

/// Reads a millisecond-valued environment variable as seconds, e.g.
/// envTimeoutSeconds("SPL_CC_TIMEOUT_MS", 60.0). Unset, empty, or
/// non-positive values yield the default.
double envTimeoutSeconds(const char *Name, double DefSeconds);

} // namespace spl

#endif // SPL_SUPPORT_SUBPROCESS_H
