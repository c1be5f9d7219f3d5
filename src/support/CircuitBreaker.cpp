//===- support/CircuitBreaker.cpp - Trip-open guard for sick dependencies -----==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CircuitBreaker.h"

#include "support/FaultInjection.h"
#include "telemetry/Metrics.h"

#include <cstdlib>

using namespace spl;
using namespace spl::support;

void CircuitBreaker::configure(int Threshold, std::int64_t CooldownMs) {
  std::lock_guard<std::mutex> Lock(M);
  ThresholdV = Threshold > 0 ? Threshold : 0;
  if (CooldownMs > 0)
    CooldownMsV = CooldownMs;
  St = State::Closed;
  ConsecutiveFailures = 0;
  ProbeInFlight = false;
  EnabledFlag.store(ThresholdV > 0, std::memory_order_relaxed);
}

bool CircuitBreaker::configureFromEnv() {
  const char *K = std::getenv("SPL_BREAKER_K");
  if (!K || !*K)
    return false;
  int Threshold = std::atoi(K);
  std::int64_t Cooldown = 0;
  if (const char *C = std::getenv("SPL_BREAKER_COOLDOWN_MS"))
    Cooldown = std::atoll(C);
  configure(Threshold, Cooldown);
  return enabled();
}

bool CircuitBreaker::allow() {
  if (fault::at("breaker-trip"))
    trip();
  // A disabled breaker stays Closed forever (recordFailure is a no-op), so
  // no enabled() special case is needed here: only a real or forced trip
  // ever reaches the Open/HalfOpen arms.
  std::lock_guard<std::mutex> Lock(M);
  switch (St) {
  case State::Closed:
    return true;
  case State::Open: {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       Clock::now() - OpenedAt)
                       .count();
    if (Elapsed < CooldownMsV) {
      telemetry::RuntimeBreakerOpen.add();
      return false;
    }
    St = State::HalfOpen;
    ProbeInFlight = false;
    [[fallthrough]];
  }
  case State::HalfOpen:
    if (ProbeInFlight) {
      // One probe at a time: concurrent attempts fail fast until the
      // in-flight probe reports back.
      telemetry::RuntimeBreakerOpen.add();
      return false;
    }
    ProbeInFlight = true;
    telemetry::RuntimeBreakerHalfOpen.add();
    return true;
  }
  return true;
}

void CircuitBreaker::recordSuccess() {
  std::lock_guard<std::mutex> Lock(M);
  ConsecutiveFailures = 0;
  ProbeInFlight = false;
  St = State::Closed;
}

void CircuitBreaker::recordFailure() {
  std::lock_guard<std::mutex> Lock(M);
  if (St == State::HalfOpen) {
    // The probe failed: reopen for a fresh cooldown.
    tripLocked();
    return;
  }
  if (!enabled())
    return;
  if (++ConsecutiveFailures >= ThresholdV && St == State::Closed)
    tripLocked();
}

void CircuitBreaker::trip() {
  std::lock_guard<std::mutex> Lock(M);
  if (St != State::Open)
    tripLocked();
}

void CircuitBreaker::tripLocked() {
  St = State::Open;
  OpenedAt = Clock::now();
  ProbeInFlight = false;
  telemetry::RuntimeBreakerTrips.add();
}

void CircuitBreaker::reset() {
  std::lock_guard<std::mutex> Lock(M);
  St = State::Closed;
  ConsecutiveFailures = 0;
  ProbeInFlight = false;
}

CircuitBreaker::State CircuitBreaker::state() const {
  std::lock_guard<std::mutex> Lock(M);
  if (St == State::Open) {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       Clock::now() - OpenedAt)
                       .count();
    if (Elapsed >= CooldownMsV)
      return State::HalfOpen;
  }
  return St;
}

const char *CircuitBreaker::stateName() const {
  switch (state()) {
  case State::Closed:
    return "closed";
  case State::Open:
    return "open";
  case State::HalfOpen:
    return "half-open";
  }
  return "unknown";
}

std::string CircuitBreaker::describe() const {
  std::lock_guard<std::mutex> Lock(M);
  std::int64_t RetryMs = 0;
  if (St == State::Open) {
    auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       Clock::now() - OpenedAt)
                       .count();
    RetryMs = Elapsed < CooldownMsV ? CooldownMsV - Elapsed : 0;
  }
  return "circuit breaker open after " + std::to_string(ConsecutiveFailures) +
         " consecutive compiler failures (retry in " +
         std::to_string(RetryMs) + " ms)";
}

CircuitBreaker &spl::support::compileBreaker() {
  static CircuitBreaker *B = [] {
    auto *Breaker = new CircuitBreaker();
    Breaker->configureFromEnv();
    return Breaker;
  }();
  return *B;
}
