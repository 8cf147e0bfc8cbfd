// Task-based parallelism (Core Guidelines CP.4: think in terms of tasks).
//
// A fixed-size worker pool with a shared queue, plus structured
// parallel_for / parallel_reduce helpers that block until completion so
// callers never observe partially-applied parallel updates. Tasks must not
// share mutable state (CP.2/CP.3); the helpers hand each task a disjoint
// index range, which makes that property easy to uphold.
//
// Blocked waiters help: while a parallel_for / parallel_reduce waits for
// its chunks it executes queued tasks on the calling thread, so nested
// parallel sections (a region started from inside a task) cannot
// deadlock the pool and idle no worker.
//
// The library runs every parallel region on ThreadPool::global(): one
// process pool, sized by DSEM_THREADS, that nested regions share.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace dsem {

class ThreadPool {
public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  /// Throws contract_error, with no worker left running, when the system
  /// cannot start them all.
  explicit ThreadPool(std::size_t threads = 0);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains outstanding tasks, then joins all workers.
  ~ThreadPool();

  /// Drains outstanding tasks and joins all workers. Safe to call more
  /// than once; submit() on a stopped pool fails.
  void stop();

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Enqueue an arbitrary task; the future rethrows task exceptions.
  template <typename F>
  std::future<std::invoke_result_t<F>> submit(F&& fn) {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard lock(mutex_);
      DSEM_ENSURE(!stopping_, "submit() on a stopped ThreadPool");
      tasks_.emplace([task] { (*task)(); });
      // How deep the queue gets is a scheduling observation, not a
      // property of the run: wall-clock reliability.
      metrics::gauge("pool.queue_depth", static_cast<double>(tasks_.size()));
    }
    cv_.notify_one();
    return result;
  }

  /// Runs one queued task on the calling thread, if one is pending.
  /// Returns false when the queue is empty.
  bool try_run_one();

  /// Waits for `future` to become ready, executing queued tasks on the
  /// calling thread in the meantime (deadlock-free nested parallelism).
  template <typename T>
  void help_while_waiting(std::future<T>& future) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!try_run_one()) {
        // Nothing left to steal: the awaited chunk is running on another
        // thread; block until it finishes.
        future.wait();
        return;
      }
    }
  }

  /// The process pool every library layer runs on. Created on first use
  /// with threads_from_env(getenv("DSEM_THREADS")) workers (1 forces exact
  /// serial execution); a live ScopedGlobalPool takes its place.
  static ThreadPool& global();

private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Test seam, the in-process equivalent of DSEM_THREADS: owns a fresh pool
/// of `threads` workers and makes it ThreadPool::global() until destroyed,
/// then restores the previous global pool. Create and destroy one only
/// while no parallel region is running.
class ScopedGlobalPool {
public:
  explicit ScopedGlobalPool(std::size_t threads);
  ScopedGlobalPool(const ScopedGlobalPool&) = delete;
  ScopedGlobalPool& operator=(const ScopedGlobalPool&) = delete;
  ~ScopedGlobalPool();

private:
  ThreadPool pool_;
  ThreadPool* previous_;
};

/// The worker count a DSEM_THREADS value asks for: null, empty and "0"
/// mean 0 (hardware_concurrency). Throws contract_error naming the value
/// unless it is a decimal integer >= 0.
std::size_t threads_from_env(const char* value);

/// Invoke fn(i) for each i in [begin, end), partitioned into contiguous
/// chunks across the pool. Blocks until all iterations complete. The first
/// exception thrown by any chunk is rethrown in the caller.
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 0);

/// Convenience overload on the global pool.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain = 0);

/// Chunked variant: fn(chunk_begin, chunk_end) — lets the caller hoist
/// per-chunk setup out of the element loop.
void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain = 0);

/// Parallel reduction: combines fn(i) over [begin, end) with `combine`,
/// starting from `init`. `combine` must be associative and commutative.
template <typename T, typename Map, typename Combine>
T parallel_reduce(ThreadPool& pool, std::size_t begin, std::size_t end,
                  T init, Map&& map_fn, Combine&& combine) {
  if (begin >= end) {
    return init;
  }
  if (pool.thread_count() <= 1) {
    // Single worker: run the one chunk inline (see parallel_for_chunks),
    // combining exactly as the submitted path would so results stay
    // bit-identical: a chunk accumulator seeded with init, then folded
    // into the outer accumulator.
    T chunk_acc = init;
    for (std::size_t i = begin; i < end; ++i) {
      chunk_acc = combine(chunk_acc, map_fn(i));
    }
    return combine(init, chunk_acc);
  }
  const std::size_t n = end - begin;
  const std::size_t chunks =
      std::min<std::size_t>(n, std::max<std::size_t>(1, pool.thread_count()));
  const std::size_t chunk = (n + chunks - 1) / chunks;

  std::vector<std::future<T>> partials;
  partials.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = begin + c * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) {
      break;
    }
    partials.push_back(pool.submit([lo, hi, init, &map_fn, &combine] {
      T acc = init;
      for (std::size_t i = lo; i < hi; ++i) {
        acc = combine(acc, map_fn(i));
      }
      return acc;
    }));
  }
  T acc = init;
  for (auto& p : partials) {
    pool.help_while_waiting(p);
    acc = combine(acc, p.get());
  }
  return acc;
}

template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t begin, std::size_t end, T init, Map&& map_fn,
                  Combine&& combine) {
  return parallel_reduce(ThreadPool::global(), begin, end, init,
                         std::forward<Map>(map_fn),
                         std::forward<Combine>(combine));
}

} // namespace dsem
