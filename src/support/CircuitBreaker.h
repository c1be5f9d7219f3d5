//===- support/CircuitBreaker.h - Trip-open guard for sick dependencies -*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic three-state circuit breaker guarding the native-compiler
/// subprocess: after `Threshold` *consecutive* failures (nonzero exits,
/// crashes, deadline kills) the breaker opens and every compile attempt
/// fails fast for `CooldownMs`, so plans degrade straight to the VM tier
/// instead of spawning a sick compiler on every miss. After the cooldown one
/// half-open probe is admitted; success closes the breaker, failure reopens
/// it with a fresh cooldown.
///
///   Closed --K consecutive failures--> Open --cooldown--> HalfOpen
///      ^                                 ^                   |
///      +------- probe succeeds ----------+--- probe fails ---+
///
/// The breaker is **disabled by default** (Threshold == 0): library users
/// and the CLI tools pay one mutex-free enabled() check and nothing else.
/// `spld` enables it via `--breaker-threshold`/`--breaker-cooldown-ms`, any
/// process can via `SPL_BREAKER_K` / `SPL_BREAKER_COOLDOWN_MS`. Kernel-cache
/// hits never consult the breaker — only real compiler runs do.
///
/// Telemetry: `runtime.breaker.trips` (closed/half-open -> open),
/// `runtime.breaker.open` (fail-fast rejections), `runtime.breaker.half_open`
/// (probes admitted). Fault site `SPL_FAULT=breaker-trip` forces a trip on
/// the next allow() even when disabled. Documented in docs/RELIABILITY.md.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_CIRCUITBREAKER_H
#define SPL_SUPPORT_CIRCUITBREAKER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>

namespace spl {
namespace support {

class CircuitBreaker {
public:
  enum class State { Closed, Open, HalfOpen };

  /// (Re)configures and resets to Closed. Threshold <= 0 disables the
  /// breaker entirely; CooldownMs <= 0 falls back to the 5000 ms default.
  void configure(int Threshold, std::int64_t CooldownMs);

  /// Applies SPL_BREAKER_K / SPL_BREAKER_COOLDOWN_MS when set; otherwise a
  /// no-op. Returns true when the environment enabled the breaker.
  bool configureFromEnv();

  bool enabled() const {
    return EnabledFlag.load(std::memory_order_relaxed);
  }

  /// Gate one attempt. True: proceed (and report the outcome via
  /// recordSuccess/recordFailure). False: fail fast, the dependency is
  /// considered down. Admits a single probe per cooldown when half-open.
  bool allow();

  void recordSuccess();
  void recordFailure();

  /// Forces the breaker open immediately (the breaker-trip fault site);
  /// works even when disabled so the site is drivable in any process.
  void trip();

  /// Back to Closed with counters cleared; configuration is kept.
  void reset();

  State state() const;
  const char *stateName() const;

  /// One-line reason for fail-fast error messages, e.g.
  /// "circuit breaker open after 5 consecutive compiler failures
  ///  (retry in 4200 ms)".
  std::string describe() const;

private:
  using Clock = std::chrono::steady_clock;

  void tripLocked();

  mutable std::mutex M;
  State St = State::Closed;
  int ConsecutiveFailures = 0;
  int ThresholdV = 0;
  std::int64_t CooldownMsV = 5000;
  Clock::time_point OpenedAt{};
  bool ProbeInFlight = false;
  std::atomic<bool> EnabledFlag{false};
};

/// The process-wide breaker guarding `perf::NativeModule::compile`'s
/// compiler-run path. Reads the SPL_BREAKER_* environment once on first use.
CircuitBreaker &compileBreaker();

} // namespace support
} // namespace spl

#endif // SPL_SUPPORT_CIRCUITBREAKER_H
