//===- support/Subprocess.cpp - Guarded process execution ---------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Subprocess.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

#include <cerrno>
#include <csignal>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace spl;

std::string SubprocessResult::describe() const {
  if (SpawnFailed)
    return "could not spawn process";
  if (TimedOut)
    return "timed out";
  if (Signal != 0)
    return "killed by signal " + std::to_string(Signal);
  return "exit " + std::to_string(ExitCode);
}

std::vector<std::string> spl::splitCommandArgs(const std::string &S) {
  std::vector<std::string> Out;
  std::istringstream SS(S);
  std::string Tok;
  while (SS >> Tok)
    Out.push_back(Tok);
  return Out;
}

double spl::envTimeoutSeconds(const char *Name, double DefSeconds) {
  const char *Env = std::getenv(Name);
  if (!Env || !*Env)
    return DefSeconds;
  char *End = nullptr;
  double Ms = std::strtod(Env, &End);
  if (End == Env || Ms <= 0)
    return DefSeconds;
  return Ms / 1000.0;
}

namespace {

/// Starts \p Argv (argv[0] resolved through PATH) the one way `src/`
/// starts a child: in its own process group, with an empty signal mask,
/// stdin on /dev/null, stdout and stderr on \p OutFd (/dev/null when < 0)
/// and \p ChannelFd (when >= 0) as its fd 3. On glibc >= 2.34 no other fd
/// above 2 is inherited; elsewhere close-on-exec alone keeps them out, and
/// the dup2s clear the flag on the child's copies. Returns the pid, or -1.
pid_t spawnChild(const std::vector<std::string> &Argv, int OutFd,
                 int ChannelFd) {
  posix_spawn_file_actions_t Actions;
  posix_spawnattr_t Attr;
  posix_spawn_file_actions_init(&Actions);
  posix_spawnattr_init(&Attr);
  posix_spawn_file_actions_addopen(&Actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  if (OutFd >= 0) {
    posix_spawn_file_actions_adddup2(&Actions, OutFd, STDOUT_FILENO);
    posix_spawn_file_actions_adddup2(&Actions, OutFd, STDERR_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&Actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&Actions, STDOUT_FILENO, STDERR_FILENO);
  }
  if (ChannelFd >= 0)
    posix_spawn_file_actions_adddup2(&Actions, ChannelFd, 3);
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 34)
  // Whatever another part of the process left open without close-on-exec
  // stays out of the child too.
  posix_spawn_file_actions_addclosefrom_np(&Actions, ChannelFd >= 0 ? 4 : 3);
#endif
  sigset_t Empty;
  sigemptyset(&Empty);
  posix_spawnattr_setsigmask(&Attr, &Empty);
  posix_spawnattr_setpgroup(&Attr, 0);
  posix_spawnattr_setflags(&Attr, POSIX_SPAWN_SETPGROUP |
                                      POSIX_SPAWN_SETSIGMASK);

  std::vector<char *> CArgv;
  CArgv.reserve(Argv.size() + 1);
  for (const std::string &A : Argv)
    CArgv.push_back(const_cast<char *>(A.c_str()));
  CArgv.push_back(nullptr);
  pid_t Pid = -1;
  if (CArgv.size() < 2 || ::posix_spawnp(&Pid, CArgv[0], &Actions, &Attr,
                                         CArgv.data(), environ) != 0)
    Pid = -1;
  posix_spawn_file_actions_destroy(&Actions);
  posix_spawnattr_destroy(&Attr);
  return Pid;
}

/// spawnChild with stdout and stderr on a fresh pipe. \p ReadFd receives
/// the pipe's read end, whose only write end the child holds. Both ends
/// close on exec, so no other thread's child inherits them.
pid_t spawnWithPipe(const std::vector<std::string> &Argv, int &ReadFd) {
  int Pipe[2];
#if defined(__linux__)
  if (::pipe2(Pipe, O_CLOEXEC) != 0)
    return -1;
#else
  if (::pipe(Pipe) != 0)
    return -1;
  ::fcntl(Pipe[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(Pipe[1], F_SETFD, FD_CLOEXEC);
#endif
  const pid_t Pid = spawnChild(Argv, Pipe[1], -1);
  ::close(Pipe[1]);
  if (Pid < 0)
    ::close(Pipe[0]);
  else
    ReadFd = Pipe[0];
  return Pid;
}

/// Reads what \p Fd has ready into \p Output (capped at \p MaxOutputBytes).
/// Returns false on EOF or a read error.
bool readChunk(int Fd, std::string &Output, std::size_t MaxOutputBytes) {
  char Buf[4096];
  ssize_t N = ::read(Fd, Buf, sizeof(Buf));
  if (N < 0 && errno == EINTR)
    return true;
  if (N <= 0)
    return false;
  if (Output.size() < MaxOutputBytes)
    Output.append(Buf, Buf + std::min<std::size_t>(
                                 static_cast<std::size_t>(N),
                                 MaxOutputBytes - Output.size()));
  return true;
}

/// Waits for \p Pid, draining \p ReadFd: the read end of a pipe whose only
/// write end the child holds, so poll() wakes the moment the child exits.
/// On expiry kills the child's whole process group, reaps it, and reports
/// TimedOut through \p TimedOut. Returns the waitpid status.
int waitWithDeadline(pid_t Pid, double TimeoutSeconds, bool &TimedOut,
                     int ReadFd, std::string &Output,
                     std::size_t MaxOutputBytes) {
  using Clock = std::chrono::steady_clock;
  TimedOut = false;
  const bool HasDeadline = TimeoutSeconds > 0;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(TimeoutSeconds));
  auto RemainingMs = [&]() -> long {
    if (!HasDeadline)
      return -1;
    // Round up: the deadline has passed only when nothing is left.
    auto Left =
        std::chrono::ceil<std::chrono::milliseconds>(Deadline - Clock::now())
            .count();
    return Left > 0 ? static_cast<long>(Left) : 0;
  };
  auto SliceMs = [&]() -> long {
    return HasDeadline ? std::min<long>(RemainingMs(), 50) : 200;
  };

  // Drain the pipe until EOF (the child exited) or the deadline expires.
  // poll() doubles as the timeout clock. A descendant can hold a copy of
  // the write end past the child's exit, so every quiet slice also probes
  // the child itself.
  int Status = 0;
  for (;;) {
    const long Slice = SliceMs();
    if (Slice == 0) {
      TimedOut = true;
      break;
    }
    struct pollfd PFD = {ReadFd, POLLIN, 0};
    int PR = ::poll(&PFD, 1, static_cast<int>(Slice));
    if (PR > 0) {
      if (readChunk(ReadFd, Output, MaxOutputBytes))
        continue;
      break; // EOF: the child is done writing.
    }
    if (PR < 0 && errno != EINTR)
      break;
    if (PR == 0 && ::waitpid(Pid, &Status, WNOHANG) == Pid) {
      // Reaped while the pipe is still held open elsewhere: keep what is
      // already buffered, then report the child's real status.
      while (Output.size() < MaxOutputBytes &&
             ::poll(&PFD, 1, 0) > 0 &&
             readChunk(ReadFd, Output, MaxOutputBytes)) {
      }
      return Status;
    }
  }

  if (!TimedOut && HasDeadline) {
    // EOF with budget left: the child is exiting, or it closed its stdio
    // and runs on. Probe with a geometric backoff from 50 us, capped at
    // the poll slice, so a prompt exit costs microseconds.
    long BackoffUs = 50;
    for (;;) {
      pid_t R = ::waitpid(Pid, &Status, WNOHANG);
      if (R == Pid)
        return Status;
      if (R < 0 && errno != EINTR)
        break;
      const long Slice = SliceMs();
      if (Slice == 0) {
        TimedOut = true;
        break;
      }
      BackoffUs = std::min(BackoffUs, Slice * 1000);
      struct timespec TS = {BackoffUs / 1000000, (BackoffUs % 1000000) * 1000};
      ::nanosleep(&TS, nullptr);
      BackoffUs *= 2;
    }
  }
  if (TimedOut) {
    // Kill the whole group: compilers spawn their own children (cc1, as).
    ::kill(-Pid, SIGKILL);
  }

  while (::waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  return Status;
}

/// Fills the exit fields of \p Res from a waitpid status.
void decodeStatus(int Status, bool TimedOut, SubprocessResult &Res) {
  Res.TimedOut = TimedOut;
  if (TimedOut)
    return;
  if (WIFSIGNALED(Status))
    Res.Signal = WTERMSIG(Status);
  else if (WIFEXITED(Status))
    Res.ExitCode = WEXITSTATUS(Status);
}

} // namespace

SubprocessResult spl::runSubprocess(const std::vector<std::string> &Argv,
                                    const SubprocessOptions &Opts) {
  SubprocessResult Res;
  int Fd = -1;
  pid_t Pid = spawnWithPipe(Argv, Fd);
  if (Pid < 0) {
    Res.SpawnFailed = true;
    return Res;
  }

  bool TimedOut = false;
  int Status = waitWithDeadline(Pid, Opts.TimeoutSeconds, TimedOut, Fd,
                                Res.Output, Opts.MaxOutputBytes);
  ::close(Fd);
  decodeStatus(Status, TimedOut, Res);
  return Res;
}

pid_t spl::spawnWithChannel(const std::vector<std::string> &Argv,
                            int ChannelFd) {
  return spawnChild(Argv, -1, ChannelFd);
}
