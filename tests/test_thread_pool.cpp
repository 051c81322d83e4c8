#include "opt/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>

namespace fraz {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i)
    futures.push_back(pool.submit([&counter] { ++counter; }));
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ThreadPool pool(3);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 50; ++i) futures.push_back(pool.submit([i] { return i * i; }));
  int sum = 0;
  for (auto& f : futures) sum += f.get();
  int expect = 0;
  for (int i = 0; i < 50; ++i) expect += i * i;
  EXPECT_EQ(sum, expect);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, SizeReportsWorkerCount) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  ThreadPool auto_pool(0);
  EXPECT_GE(auto_pool.size(), 1u);
}

TEST(ThreadPool, ActuallyParallel) {
  // Two 40ms sleeps on two workers should finish well under 80ms.
  ThreadPool pool(2);
  const auto start = std::chrono::steady_clock::now();
  auto a = pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(40)); });
  auto b = pool.submit([] { std::this_thread::sleep_for(std::chrono::milliseconds(40)); });
  a.get();
  b.get();
  const auto elapsed = std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 75.0);
}

TEST(ThreadPool, DestructionDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i)
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ++done;
      });
  }  // destructor must wait for queued work
  EXPECT_EQ(done.load(), 20);
}

TEST(ParallelForShared, NestedHelpersStayOnTheCallersPool) {
  // Learn the pool's two worker ids: two tasks that each wait for the other
  // must run on different workers.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  std::mutex ids_mutex;
  std::set<std::thread::id> workers;
  auto meet = [&] {
    ++started;
    while (started.load() < 2) std::this_thread::yield();
    std::lock_guard<std::mutex> lock(ids_mutex);
    workers.insert(std::this_thread::get_id());
  };
  auto a = pool.submit(meet);
  auto b = pool.submit(meet);
  a.get();
  b.get();
  ASSERT_EQ(workers.size(), 2u);

  // A fan-out issued from a pool task asks for more helpers than the pool
  // has; every index must still run on that pool's threads (the caller is
  // one of them), never on shared_thread_pool().
  std::set<std::thread::id> ran_on;
  std::atomic<int> done{0};
  pool.submit([&] {
        parallel_for_shared(48, 8, [&](std::size_t) {
          std::this_thread::sleep_for(std::chrono::microseconds(500));
          ++done;
          std::lock_guard<std::mutex> lock(ids_mutex);
          ran_on.insert(std::this_thread::get_id());
        });
      })
      .get();
  EXPECT_EQ(done.load(), 48);
  for (const std::thread::id& id : ran_on)
    EXPECT_EQ(workers.count(id), 1u) << "an index ran outside the caller's pool";
}

}  // namespace
}  // namespace fraz
