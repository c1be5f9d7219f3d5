//===- support/Subprocess.h - Guarded process execution ---------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bounded, observable child-process execution: the one way `src/` starts
/// a child. The planner shells out to an external C compiler and proves
/// every kernel in a small trial runner; a hanging or crashing child must
/// cost a timeout, not a planner. runSubprocess() starts the child with
/// posix_spawn, whose cost does not grow with the caller's RSS (a fork
/// copies the caller's page tables), and adds:
///
///   - a wall-clock timeout with kill-on-expiry: the child starts in its
///     own process group (POSIX_SPAWN_SETPGROUP), so the whole group dies
///     and a compiler's own children cannot linger,
///   - captured, size-capped combined stdout/stderr,
///   - stdin from /dev/null and an empty signal mask; on glibc >= 2.34 no
///     fd above 2 is inherited (elsewhere close-on-exec alone keeps them
///     out),
///   - a typed result distinguishing exit status, terminating signal,
///     timeout, and spawn failure (a missing binary included).
///
/// The wait is exit-driven. The child holds the only write end of a
/// close-on-exec pipe (it carries the output), so the parent's poll()
/// wakes when the child exits and closes it, not on a timer tick. A
/// descendant can keep a copy of that write end open, so each quiet poll
/// slice (50 ms under a deadline, 200 ms without) also probes the child
/// with waitpid(WNOHANG) and returns its real status once it is reaped.
/// After EOF the child is reaped with a geometric backoff from 50 us, so a
/// prompt exit costs microseconds rather than a sleep.
///
/// spawnWithChannel() starts a resident helper the same way but does not
/// wait: the caller talks to it over the one fd it hands over as fd 3, and
/// reaps it.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_SUBPROCESS_H
#define SPL_SUPPORT_SUBPROCESS_H

#include <string>
#include <vector>

#include <sys/types.h>

namespace spl {

/// What happened to a spawned child process.
struct SubprocessResult {
  int ExitCode = -1;       ///< Valid when the child exited normally.
  int Signal = 0;          ///< Terminating signal; 0 when none.
  bool TimedOut = false;   ///< Killed because the deadline expired.
  bool SpawnFailed = false;///< posix_spawn failed (e.g. no such binary).
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

/// Starts \p Argv as runSubprocess() does (own process group, empty signal
/// mask, stdin from /dev/null, no other fd above 2), with stdout and stderr
/// on /dev/null and \p ChannelFd as its fd 3 (it may be close-on-exec
/// here; the child's copy is not), and returns without waiting. Returns the
/// pid, which the caller must reap, or -1 when the child could not start.
pid_t spawnWithChannel(const std::vector<std::string> &Argv, int ChannelFd);

/// Splits a command-line fragment on whitespace: "-O2 -fPIC" -> {-O2, -fPIC}.
/// No quoting rules — this is for compiler-flag strings, not shell text.
std::vector<std::string> splitCommandArgs(const std::string &S);

/// Reads a millisecond-valued environment variable as seconds, e.g.
/// envTimeoutSeconds("SPL_CC_TIMEOUT_MS", 60.0). Unset, empty, or
/// non-positive values yield the default.
double envTimeoutSeconds(const char *Name, double DefSeconds);

} // namespace spl

#endif // SPL_SUPPORT_SUBPROCESS_H
