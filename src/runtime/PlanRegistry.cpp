//===- runtime/PlanRegistry.cpp - Shared plan memoization ---------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/PlanRegistry.h"

#include "telemetry/Metrics.h"

#include <algorithm>
#include <chrono>
#include <cmath>

using namespace spl;
using namespace spl::runtime;

std::shared_ptr<Plan> PlanRegistry::acquire(const PlanSpec &Spec) {
  return acquire(Spec, support::Deadline(), nullptr);
}

std::shared_ptr<Plan> PlanRegistry::acquire(const PlanSpec &Spec,
                                            const support::Deadline &Deadline,
                                            PlanError *Err) {
  auto Report = [&](PlanError E) {
    if (Err)
      *Err = E;
  };
  Report(PlanError::None);
  const std::string Key = Spec.key();
  std::shared_ptr<Slot> Mine;
  {
    std::unique_lock<std::mutex> Lock(M);
    auto It = Slots.find(Key);
    if (It != Slots.end()) {
      std::shared_ptr<Slot> Theirs = It->second;
      if (Theirs->Ready) {
        ++S.Hits;
        telemetry::RegistryHits.add();
        if (!Theirs->P)
          Report(PlanError::Failed);
        return Theirs->P;
      }
      // Another thread is planning this spec right now; share its result —
      // but wait at most this caller's remaining budget. Timing out
      // abandons only the wait: the planning thread keeps going and its
      // result still lands in the memo for future callers.
      ++S.Waits;
      telemetry::RegistryWaits.add();
      const double Remaining = Deadline.remainingSeconds();
      if (std::isfinite(Remaining)) {
        if (!Ready.wait_for(Lock,
                            std::chrono::duration<double>(
                                std::max(0.0, Remaining)),
                            [&] { return Theirs->Ready; })) {
          Report(PlanError::DeadlineExceeded);
          return nullptr;
        }
      } else {
        Ready.wait(Lock, [&] { return Theirs->Ready; });
      }
      if (!Theirs->P)
        Report(Deadline.expired() ? PlanError::DeadlineExceeded
                                  : PlanError::Failed);
      return Theirs->P;
    }
    Mine = std::make_shared<Slot>();
    Slots.emplace(Key, Mine);
    ++S.Misses;
    telemetry::RegistryMisses.add();
    telemetry::RegistryPlans.set(static_cast<std::int64_t>(Slots.size()));
  }

  // Plan outside the lock: planning can take seconds (search + compile) and
  // other specs must not queue behind it.
  std::shared_ptr<Plan> P = ThePlanner.plan(Spec, Deadline, Err);

  {
    std::lock_guard<std::mutex> Lock(M);
    Mine->Ready = true;
    Mine->P = P;
    if (!P || P->deadlinePressured()) {
      // Failures are retryable, not memoized — and a deadline-pressured
      // plan is a degraded artifact this caller may use but an unpressured
      // caller should not inherit. Guard against clear() having raced in:
      // only drop the entry if it is still ours.
      auto It = Slots.find(Key);
      if (It != Slots.end() && It->second == Mine)
        Slots.erase(It);
    }
    telemetry::RegistryPlans.set(static_cast<std::int64_t>(Slots.size()));
  }
  Ready.notify_all();
  return P;
}

PlanRegistry::Stats PlanRegistry::stats() const {
  std::lock_guard<std::mutex> Lock(M);
  return S;
}

size_t PlanRegistry::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Slots.size();
}

void PlanRegistry::clear() {
  std::lock_guard<std::mutex> Lock(M);
  // In-flight slots stay: their owners still hold the shared_ptr<Slot> and
  // will publish into it; dropping the map entry just forgets the memo.
  Slots.clear();
  telemetry::RegistryPlans.set(0);
}
