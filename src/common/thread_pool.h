// Fixed-size thread pool with future-returning submission.
//
// Used by the portfolio solver (run several solvers on one instance and take
// the first answer), by the hive's batch ingestion pipeline, and by benches
// that need real parallelism. RAII: the destructor drains and joins
// (CP.25 — never detach).
#pragma once

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace softborg {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Schedules `fn` and returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::queue<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// Runs `fn(i)` for every i in [0, n), splitting the range into ~4 chunks per
// worker, and blocks until the whole range is done. `fn` must be safe to call
// concurrently for distinct indices. With a null pool (or a trivial range)
// the loop runs inline on the caller — same results, no threads. If any call
// throws, every chunk still runs to completion (captured references stay
// valid) and the first exception is rethrown afterwards.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t n, const Fn& fn) {
  if (pool == nullptr || pool->size() <= 1 || n < 2) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  const std::size_t chunks = std::min(n, pool->size() * 4);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = c * n / chunks;
    const std::size_t hi = (c + 1) * n / chunks;
    futures.push_back(pool->submit([&fn, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) fn(i);
    }));
  }
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace softborg
