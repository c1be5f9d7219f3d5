//===- support/ThreadPool.h - Simple worker pool ----------------*- C++ -*-==//
//
// Part of the SPL reproduction project. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small fixed-size worker pool (std::thread + queue) and parallelFor, the
/// one way compute work fans out. Every parallelFor draws its helpers from
/// one process-wide pool; the caller runs indices too and waits only for
/// indices, never for queued jobs, so a call cannot deadlock: not from a
/// pool job, a spld request worker, or inside another parallelFor.
///
//===----------------------------------------------------------------------===//

#ifndef SPL_SUPPORT_THREADPOOL_H
#define SPL_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spl {

/// A fixed set of worker threads consuming a FIFO job queue.
class ThreadPool {
public:
  /// Spawns \p Threads workers (minimum 1).
  explicit ThreadPool(unsigned Threads);

  /// Runs every queued job, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues one job.
  void run(std::function<void()> Job);

  /// A sensible default worker count: hardware_concurrency, at least 1.
  static unsigned defaultThreads();

private:
  void workerLoop();

  std::mutex M;
  std::condition_variable JobReady; ///< Signals workers: job or shutdown.
  std::deque<std::function<void()>> Jobs;
  std::vector<std::thread> Workers;
  bool Stopping = false;
};

namespace detail {
void parallelFor(size_t N, int Width, const std::function<void(size_t)> &Fn);
} // namespace detail

/// Runs Fn(0..N-1), N < 2^32, with at most \p Width runners at once, the
/// caller among them; helpers come from the process pool of defaultThreads()
/// - 1 workers, made by the first call with Width > 1. Width <= 1 runs
/// inline, in order, with no allocation, lock or pool. Fn must not throw.
template <typename FnT> void parallelFor(size_t N, int Width, FnT &&Fn) {
  if (Width <= 1 || N <= 1) {
    for (size_t I = 0; I != N; ++I)
      Fn(I);
    return;
  }
  detail::parallelFor(N, Width, std::ref(Fn));
}

} // namespace spl

#endif // SPL_SUPPORT_THREADPOOL_H
