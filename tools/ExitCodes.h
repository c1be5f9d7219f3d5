//===- tools/ExitCodes.h - Shared CLI exit codes ----------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exit codes shared by the command-line tools (splc, splrun) so scripts
/// and CI can tell failure stages apart. Documented in docs/RELIABILITY.md
/// and asserted by tests/ToolTest.cpp.
///
///   0  success
///   2  usage error: bad flags, missing values, unreadable input file
///   3  parse error: the SPL source or transform spec was rejected
///   4  compile/search error: planning, search, or code generation failed
///   5  execution error: running or verifying the transform failed
///   6  deadline exceeded: the --deadline-ms budget (or the server-side
///      deadline) expired before the work finished; retrying with a larger
///      budget may succeed, which is why it is distinct from 4/5
///
//===----------------------------------------------------------------------===//

#ifndef SPL_TOOLS_EXITCODES_H
#define SPL_TOOLS_EXITCODES_H

#include <cstdio>
#include <new>
#include <stdexcept>

namespace spl {
namespace tools {

enum ExitCode {
  ExitOK = 0,
  ExitUsage = 2,
  ExitParse = 3,
  ExitCompile = 4,
  ExitExec = 5,
  ExitDeadline = 6,
};

/// Runs \p Stage, a tool's compile or plan step, and turns a program too
/// large for memory into a one-line diagnostic and ExitCompile rather than
/// an abort: a std::vector asked to outgrow max_size() throws
/// std::length_error, and an allocation refused under an address-space
/// limit throws std::bad_alloc. Without such a limit, overcommit may let
/// the kernel kill the process before any allocation fails.
template <typename StageFn>
int runCompileStage(const char *Tool, StageFn Stage) {
  auto TooLarge = [Tool](const std::exception &E) {
    std::fprintf(stderr, "%s: error: too large to compile in memory (%s)\n",
                 Tool, E.what());
    return static_cast<int>(ExitCompile);
  };
  try {
    return Stage();
  } catch (const std::bad_alloc &E) {
    return TooLarge(E);
  } catch (const std::length_error &E) {
    return TooLarge(E);
  }
}

} // namespace tools
} // namespace spl

#endif // SPL_TOOLS_EXITCODES_H
