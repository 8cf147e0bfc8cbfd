#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/trace.hpp"

namespace dsem {

namespace {

// The live ScopedGlobalPool's pool, if any. Atomic so that worker threads
// reading it inside a region never race a seam created between regions.
std::atomic<ThreadPool*> g_scoped_pool{nullptr};

} // namespace

std::size_t threads_from_env(const char* value) {
  if (value == nullptr || *value == '\0') {
    return 0;
  }
  std::size_t threads = 0;
  const char* const end = value + std::strlen(value);
  const auto [ptr, ec] = std::from_chars(value, end, threads);
  DSEM_ENSURE(ec == std::errc{} && ptr == end,
              "DSEM_THREADS must be a decimal integer >= 0, got \"" +
                  std::string(value) + "\"");
  return threads;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  try {
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (const std::exception& e) {
    // Out of threads or memory: release the workers already running, so
    // the failure is an error rather than a hang or a terminate. Only the
    // process pool is sized from outside the program, hence the hint.
    stop();
    throw contract_error("ThreadPool: cannot start " +
                         std::to_string(threads) + " workers (" + e.what() +
                         "); DSEM_THREADS sizes the process pool");
  }
}

ThreadPool::~ThreadPool() { stop(); }

void ThreadPool::stop() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) {
      w.join();
    }
  }
}

bool ThreadPool::try_run_one() {
  std::function<void()> task;
  {
    std::lock_guard lock(mutex_);
    if (tasks_.empty()) {
      return false;
    }
    task = std::move(tasks_.front());
    tasks_.pop();
  }
  // A blocked waiter stealing work: the stolen task must not record trace
  // events into the waiter's logical scope (which task a waiter steals is
  // a scheduling accident).
  trace::ScopeReset scope_reset;
  trace::Span span("pool.steal", trace::cat::kPool,
                   trace::Reliability::kTimingDependent);
  // Which thread steals how many tasks is a scheduling accident.
  metrics::counter("pool.steals", 1, metrics::Reliability::kWallClock);
  task();
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      if (stopping_ || !tasks_.empty()) {
        // Fast path: no idle span for an already-satisfied wait.
        if (tasks_.empty()) {
          return;
        }
      } else {
        trace::Span idle("pool.idle", trace::cat::kPool,
                         trace::Reliability::kTimingDependent);
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
        if (tasks_.empty()) {
          return; // stopping_ and drained
        }
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    trace::ScopeReset scope_reset;
    trace::Span span("pool.task", trace::cat::kPool,
                     trace::Reliability::kTimingDependent);
    // Steals run some submissions inline, so the worker tally varies with
    // scheduling even though the submission count does not.
    metrics::counter("pool.tasks", 1, metrics::Reliability::kWallClock);
    task();
  }
}

ThreadPool& ThreadPool::global() {
  ThreadPool* const scoped = g_scoped_pool.load();
  if (scoped != nullptr) {
    return *scoped;
  }
  static ThreadPool pool(threads_from_env(std::getenv("DSEM_THREADS")));
  return pool;
}

ScopedGlobalPool::ScopedGlobalPool(std::size_t threads)
    : pool_(threads), previous_(g_scoped_pool.exchange(&pool_)) {}

ScopedGlobalPool::~ScopedGlobalPool() { g_scoped_pool.store(previous_); }

void parallel_for_chunks(ThreadPool& pool, std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t grain) {
  if (begin >= end) {
    return;
  }
  if (pool.thread_count() <= 1) {
    // A lone worker cannot overlap anything with the caller: enqueueing
    // chunks would only buy condvar round-trips per region. Chunk geometry
    // is a scheduling accident callers must not depend on, so collapsing
    // to one inline chunk is observationally equivalent — and exactly the
    // "DSEM_THREADS=1 means serial" contract.
    fn(begin, end);
    return;
  }
  const std::size_t n = end - begin;
  if (grain == 0) {
    // Aim for a few chunks per worker to smooth load imbalance.
    const std::size_t target = pool.thread_count() * 4;
    grain = std::max<std::size_t>(1, n / std::max<std::size_t>(1, target));
  }
  if (n <= grain) {
    fn(begin, end);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n / grain + 1);
  for (std::size_t lo = begin; lo < end; lo += grain) {
    const std::size_t hi = std::min(end, lo + grain);
    futures.push_back(pool.submit([lo, hi, &fn] { fn(lo, hi); }));
  }
  // Propagate the first exception but always wait for every chunk, so the
  // caller never returns while tasks still reference its locals.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      pool.help_while_waiting(f);
      f.get();
    } catch (...) {
      if (!first_error) {
        first_error = std::current_exception();
      }
    }
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for_chunks(
      pool, begin, end,
      [&fn](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          fn(i);
        }
      },
      grain);
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& fn,
                  std::size_t grain) {
  parallel_for(ThreadPool::global(), begin, end, fn, grain);
}

} // namespace dsem
