//===- support/Deadline.h - Monotonic budgets + cooperative cancel ------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A `Deadline` is a monotonic wall-clock budget plus a shared cooperative
/// `CancelToken`, threaded through every layer that can take unbounded time
/// (DP search, the native-compiler subprocess, batch execution, the service
/// request path). Layers check `expired()` at safe points — between
/// candidates, between batch vectors, before spawning a compiler — and return
/// best-so-far or a typed `DeadlineExceeded` instead of running on.
///
/// Design points:
///  * Default-constructed deadlines are **unbounded**: `expired()` is false
///    forever and `remainingSeconds()` is +inf, so unbudgeted callers pay one
///    branch and no clock read.
///  * Copies share the cancel token: cancelling any copy cancels them all.
///    `slice(f)` derives a sub-deadline covering a fraction of the remaining
///    budget (the planner's search slice) that still shares the token.
///  * Everything is `steady_clock`-based; wall-clock jumps cannot expire a
///    request early or extend it.
///
/// Documented in docs/RELIABILITY.md ("Latency bounds and overload").
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_DEADLINE_H
#define SPL_SUPPORT_DEADLINE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>

namespace spl {
namespace support {

/// Shared cooperative cancellation flag. Copies alias the same flag, so a
/// token handed to a worker thread observes a later `cancel()` by the owner.
class CancelToken {
public:
  CancelToken() : Flag(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { Flag->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return Flag->load(std::memory_order_relaxed); }

private:
  std::shared_ptr<std::atomic<bool>> Flag;
};

class Deadline {
  using Clock = std::chrono::steady_clock;

public:
  /// Unbounded: never expires (unless cancelled).
  Deadline() = default;

  /// A deadline \p Ms milliseconds from now; Ms <= 0 means unbounded
  /// (matching the `--deadline-ms 0` / absent-wire-field convention).
  static Deadline afterMs(std::int64_t Ms) {
    Deadline D;
    if (Ms > 0)
      D.End = Clock::now() + std::chrono::milliseconds(Ms);
    return D;
  }

  /// A deadline \p Seconds from now; nonpositive means unbounded.
  static Deadline after(double Seconds) {
    Deadline D;
    if (Seconds > 0)
      D.End = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(Seconds));
    return D;
  }

  bool unbounded() const { return !End.has_value(); }

  /// True once the budget is spent or the token was cancelled. The unbounded
  /// fast path is one relaxed atomic load, no clock read.
  bool expired() const {
    if (Token.cancelled())
      return true;
    return End && Clock::now() >= *End;
  }

  /// Remaining budget in seconds: +inf when unbounded, <= 0 when expired.
  double remainingSeconds() const {
    if (Token.cancelled())
      return 0.0;
    if (!End)
      return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(*End - Clock::now()).count();
  }

  /// Remaining budget in whole milliseconds, clamped at 0; a large sentinel
  /// (~68 years) when unbounded so it fits the wire's u32 comfortably.
  std::int64_t remainingMs() const {
    double S = remainingSeconds();
    if (S == std::numeric_limits<double>::infinity())
      return std::numeric_limits<std::int64_t>::max() / 2;
    return S <= 0 ? 0 : static_cast<std::int64_t>(S * 1000.0);
  }

  /// A derived deadline covering \p Fraction of the remaining budget,
  /// sharing this deadline's cancel token (cancelling the parent cancels the
  /// slice). Slicing an unbounded deadline stays unbounded; slicing an
  /// expired one yields an already-expired deadline.
  Deadline slice(double Fraction) const {
    Deadline D = *this;
    if (!End)
      return D;
    double Rem = remainingSeconds();
    if (Rem < 0)
      Rem = 0;
    D.End = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(Rem * Fraction));
    return D;
  }

  /// Cooperative cancel: flips the shared token for every copy and slice.
  void cancel() { Token.cancel(); }
  bool cancelled() const { return Token.cancelled(); }
  CancelToken token() const { return Token; }

private:
  std::optional<Clock::time_point> End;
  CancelToken Token;
};

} // namespace support
} // namespace spl

#endif // SPL_SUPPORT_DEADLINE_H
