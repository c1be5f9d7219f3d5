//===- support/ThreadPool.cpp - Simple worker pool ----------------------------==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <memory>

using namespace spl;

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads < 1)
    Threads = 1;
  Workers.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> Lock(M);
    Stopping = true;
  }
  JobReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::run(std::function<void()> Job) {
  {
    std::unique_lock<std::mutex> Lock(M);
    Jobs.push_back(std::move(Job));
  }
  JobReady.notify_one();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(M);
      JobReady.wait(Lock, [this] { return Stopping || !Jobs.empty(); });
      if (Jobs.empty())
        return; // Stopping and drained.
      Job = std::move(Jobs.front());
      Jobs.pop_front();
    }
    Job();
  }
}

unsigned ThreadPool::defaultThreads() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

namespace {

/// One parallelFor call's state. Helper jobs share it, so one that starts
/// after the call returned still finds it alive, claims no index and never
/// touches Fn.
struct ForCall {
  const size_t N;
  const std::function<void(size_t)> &Fn;
  std::atomic<size_t> Next{0};   ///< Next unclaimed index.
  std::atomic<unsigned> Done{0}; ///< The latch: indices run (futex-sized).

  void runIndices() { // Claims and runs indices until none are left.
    unsigned Ran = 0;
    for (size_t I; (I = Next.fetch_add(1)) < N; ++Ran)
      Fn(I);
    if (Ran && (Done += Ran) == N)
      Done.notify_one();
  }
};

} // namespace

void spl::detail::parallelFor(size_t N, int Width,
                              const std::function<void(size_t)> &Fn) {
  static const size_t Cores = ThreadPool::defaultThreads();
  static ThreadPool Pool(static_cast<unsigned>(Cores) - 1);
  auto Call = std::make_shared<ForCall>(N, Fn);
  // One helper job per extra runner, never more than the pool has workers.
  for (size_t J = 1; J < N && J < size_t(Width) && J < Cores; ++J)
    Pool.run([Call] { Call->runIndices(); });
  Call->runIndices();
  // Every unfinished index now runs on an awake helper: spin briefly before
  // paying for a futex sleep and wake-up.
  for (unsigned D, Spin = 0; (D = Call->Done) != N; ++Spin)
    if (Spin >= 20000)
      Call->Done.wait(D);
}
