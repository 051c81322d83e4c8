#include "opt/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace fraz {

/// The pool whose worker_loop runs on this thread; null on other threads.
static thread_local ThreadPool* current_pool = nullptr;

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    LockGuard lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& shared_thread_pool() {
  // Function-local static: constructed on first use, torn down at exit after
  // main's pools have drained (no task outlives the submitter's future wait).
  static ThreadPool pool(0);
  return pool;
}

void parallel_for_shared(std::size_t n, unsigned threads,
                         const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  ThreadPool& pool = current_pool ? *current_pool : shared_thread_pool();
  const unsigned helpers = static_cast<unsigned>(
      std::min<std::size_t>({threads > 0 ? threads - 1 : 0, n - 1, pool.size()}));
  if (helpers == 0) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  struct State {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n;
    const std::function<void(std::size_t)>* fn;
    Mutex mutex;
    CondVar finished;
    std::exception_ptr first_error;  // guarded by mutex
  };
  auto state = std::make_shared<State>();
  state->n = n;
  state->fn = &fn;

  auto run = [](const std::shared_ptr<State>& s) {
    for (;;) {
      const std::size_t i = s->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= s->n) return;
      try {
        (*s->fn)(i);
      } catch (...) {
        LockGuard lock(s->mutex);
        if (!s->first_error) s->first_error = std::current_exception();
      }
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->n) {
        // Last index overall: wake the caller (it may be waiting below).
        LockGuard lock(s->mutex);
        s->finished.notify_all();
      }
    }
  };

  // Fire-and-forget helpers: each holds a shared_ptr to the state, so the
  // state outlives the caller even if a helper is still unwinding its final
  // (empty) claim when the caller returns.  The caller participates too and
  // never blocks on the pool — if no worker ever picks a helper up, the
  // caller's own claim loop drains all n indices.
  for (unsigned h = 0; h < helpers; ++h) pool.submit([state, run] { run(state); });
  run(state);

  {
    UniqueLock lock(state->mutex);
    while (state->done.load(std::memory_order_acquire) < n) state->finished.wait(lock);
    if (state->first_error) std::rethrow_exception(state->first_error);
  }
}

void ThreadPool::worker_loop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      UniqueLock lock(mutex_);
      while (!stopping_ && queue_.empty()) wake_.wait(lock);
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace fraz
