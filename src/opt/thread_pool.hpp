#ifndef FRAZ_OPT_THREAD_POOL_HPP
#define FRAZ_OPT_THREAD_POOL_HPP

/// \file thread_pool.hpp
/// Fixed-size worker pool used as the substitute for the paper's MPI rank
/// parallelism (see DESIGN.md §2): region searches, per-field tuning, and
/// per-time-step work are all submitted here.  Tasks are plain callables;
/// results travel through std::future.
///
/// A task must never block on another task of a pool it may run on.
/// parallel_for_shared keeps nested fan-out on the caller's pool, so an
/// archive build's chunk tasks, their probe batches and blocked sz's group
/// fan-out inside them all stay on the build's threads.

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace fraz {

/// A minimal FIFO thread pool.
class ThreadPool {
public:
  /// \param threads worker count; 0 selects hardware_concurrency (min 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains the queue and joins workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()); }

  /// Submit a callable returning R; returns its future.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      LockGuard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return result;
  }

private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  std::deque<std::function<void()>> queue_ FRAZ_GUARDED_BY(mutex_);
  CondVar wake_;
  bool stopping_ FRAZ_GUARDED_BY(mutex_) = false;
};

/// The process-wide pool (hardware-sized, lazily created): where
/// parallel_for_shared sends helpers for callers that run on no pool, and
/// where serve readahead lands.  Its threads live as long as the process —
/// and each keeps its malloc arena — so work with a bounded role (an
/// archive build) owns a pool of its own instead.
ThreadPool& shared_thread_pool();

/// Run fn(0..n-1) with up to \p threads workers, the CALLER INCLUDED: the
/// helpers go to the calling thread's pool (shared_thread_pool() when the
/// caller runs on none), and the caller claims work too, so the loop
/// completes even when every pool worker is busy (or when this is itself
/// running on a pool worker), which keeps the never-block-on-pool-tasks rule
/// intact for nested use.  Helpers claim indices from a shared atomic
/// counter; the first exception is captured and rethrown on the caller after
/// every index has finished.  threads <= 1 or n <= 1 runs inline.
///
/// Index assignment is dynamic, so \p fn must not care which thread runs
/// which index: writes for distinct indices must land in disjoint locations
/// and results must depend only on the index (the blocked-sz and probe-batch
/// determinism contracts ride on this).
void parallel_for_shared(std::size_t n, unsigned threads,
                         const std::function<void(std::size_t)>& fn);

}  // namespace fraz

#endif  // FRAZ_OPT_THREAD_POOL_HPP
