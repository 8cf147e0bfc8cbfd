#include "common/thread_pool.hpp"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace dsem {
namespace {

TEST(ThreadPool, RunsSubmittedTask) {
  ThreadPool pool(2);
  auto future = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(future.get(), 42);
}

TEST(ThreadPool, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, ExplicitThreadCountRespected) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
}

TEST(ThreadPool, PropagatesTaskException) {
  ThreadPool pool(2);
  auto future = pool.submit(
      []() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(future.get(), std::runtime_error);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 200; ++i) {
    futures.push_back(pool.submit([&counter] { ++counter; }));
  }
  for (auto& f : futures) {
    f.get();
  }
  EXPECT_EQ(counter.load(), 200);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&counter] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, 0, hits.size(),
               [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool touched = false;
  parallel_for(pool, 5, 5, [&](std::size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelFor, SingleElementRange) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(pool, 7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, RethrowsFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 0, 100,
                            [](std::size_t i) {
                              if (i == 13) {
                                throw std::runtime_error("unlucky");
                              }
                            },
                            /*grain=*/1),
               std::runtime_error);
}

TEST(ParallelFor, GrainLargerThanRangeRunsInline) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  parallel_for(pool, 0, 10, [&](std::size_t) { ++calls; }, 100);
  EXPECT_EQ(calls.load(), 10);
}

TEST(ParallelForChunks, ChunksPartitionTheRange) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunks(pool, 0, 97,
                      [&](std::size_t lo, std::size_t hi) {
                        std::lock_guard lock(m);
                        chunks.emplace_back(lo, hi);
                      },
                      10);
  std::sort(chunks.begin(), chunks.end());
  std::size_t expected = 0;
  for (const auto& [lo, hi] : chunks) {
    EXPECT_EQ(lo, expected);
    EXPECT_GT(hi, lo);
    expected = hi;
  }
  EXPECT_EQ(expected, 97u);
}

TEST(ParallelReduce, SumsCorrectly) {
  ThreadPool pool(4);
  const double sum = parallel_reduce(
      pool, 1, 1001, 0.0,
      [](std::size_t i) { return static_cast<double>(i); },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(sum, 500500.0);
}

TEST(ParallelReduce, MaxReduction) {
  ThreadPool pool(4);
  std::vector<double> values(500);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>((i * 7919) % 499);
  }
  const double expected = *std::max_element(values.begin(), values.end());
  const double got = parallel_reduce(
      pool, 0, values.size(), 0.0,
      [&](std::size_t i) { return values[i]; },
      [](double a, double b) { return std::max(a, b); });
  EXPECT_DOUBLE_EQ(got, expected);
}

TEST(ParallelReduce, EmptyRangeReturnsInit) {
  ThreadPool pool(2);
  const double got = parallel_reduce(
      pool, 3, 3, 42.0, [](std::size_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(got, 42.0);
}

TEST(ThreadPool, SubmitAfterStopThrows) {
  ThreadPool pool(2);
  pool.stop();
  EXPECT_THROW(pool.submit([] {}), contract_error);
}

TEST(ThreadPool, StopDrainsQueueAndIsIdempotent) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&counter] { ++counter; });
  }
  pool.stop();
  EXPECT_EQ(counter.load(), 50);
  pool.stop(); // second stop must be a no-op, not a crash
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, TryRunOneStealsQueuedTask) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::atomic<bool> started{false};
  auto blocked = pool.submit([&] {
    started = true;
    gate.get_future().wait();
  });
  while (!started.load()) {
    std::this_thread::yield();
  }
  std::atomic<bool> ran{false};
  auto queued = pool.submit([&ran] { ran = true; });
  // The only worker is parked on the gate, so the queued task can only run
  // if the calling thread steals it.
  EXPECT_TRUE(pool.try_run_one());
  EXPECT_TRUE(ran.load());
  EXPECT_FALSE(pool.try_run_one()); // queue is empty again
  gate.set_value();
  blocked.get();
  queued.get();
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // A two-worker pool (single-worker pools run parallel_for inline) with
  // more chunks than workers forces the blocked outer chunks to execute
  // the inner chunks themselves (help-while-waiting); without work
  // stealing this test would hang.
  ThreadPool pool(2);
  std::atomic<int> count{0};
  parallel_for(
      pool, 0, 4,
      [&](std::size_t) {
        parallel_for(pool, 0, 4, [&](std::size_t) { ++count; }, 1);
      },
      1);
  EXPECT_EQ(count.load(), 16);
}

TEST(ParallelReduce, SingleElementRange) {
  ThreadPool pool(4);
  const double got = parallel_reduce(
      pool, 9, 10, 0.0,
      [](std::size_t i) { return static_cast<double>(i); },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(got, 9.0);
}

TEST(ParallelReduce, MoreThreadsThanElements) {
  ThreadPool pool(8);
  const double got = parallel_reduce(
      pool, 0, 3, 0.0,
      [](std::size_t i) { return static_cast<double>(i + 1); },
      [](double a, double b) { return a + b; });
  EXPECT_DOUBLE_EQ(got, 6.0);
}

TEST(ThreadPool, HelpWhileWaitingExecutesNestedSubmissions) {
  // The waited-on task submits children and waits on them in turn. On a
  // single-worker pool the outer wait can only complete if
  // help_while_waiting keeps draining the queue on the calling thread —
  // including tasks submitted AFTER the wait began.
  ThreadPool pool(1);
  std::atomic<int> done{0};
  auto outer = pool.submit([&] {
    std::vector<std::future<void>> children;
    for (int i = 0; i < 8; ++i) {
      children.push_back(pool.submit([&done] { ++done; }));
    }
    for (auto& c : children) {
      pool.help_while_waiting(c);
      c.get();
    }
  });
  pool.help_while_waiting(outer);
  outer.get();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPool, NestedSubmissionUnderContention) {
  // Many concurrent callers each spawn a two-level task tree on a pool
  // smaller than the caller count: every wait must help. Exercises the
  // steal path from multiple threads at once (the ASan/UBSan shard runs
  // this to catch races in the queue handoff).
  ThreadPool pool(2);
  constexpr int kCallers = 6;
  constexpr int kChildren = 16;
  std::atomic<int> executed{0};
  std::vector<std::jthread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&] {
      auto root = pool.submit([&] {
        std::vector<std::future<int>> grandchildren;
        for (int i = 0; i < kChildren; ++i) {
          grandchildren.push_back(pool.submit([&executed, i] {
            ++executed;
            return i;
          }));
        }
        int sum = 0;
        for (auto& g : grandchildren) {
          pool.help_while_waiting(g);
          sum += g.get();
        }
        return sum;
      });
      pool.help_while_waiting(root);
      EXPECT_EQ(root.get(), kChildren * (kChildren - 1) / 2);
    });
  }
  callers.clear();
  EXPECT_EQ(executed.load(), kCallers * kChildren);
}

TEST(ThreadPool, DeepNestedParallelForCompletes) {
  // Three levels of nesting on one worker: only help-while-waiting keeps
  // this from deadlocking, and every index must still run exactly once.
  ThreadPool pool(1);
  std::vector<std::atomic<int>> hits(27);
  parallel_for(
      pool, 0, 3,
      [&](std::size_t i) {
        parallel_for(
            pool, 0, 3,
            [&](std::size_t j) {
              parallel_for(
                  pool, 0, 3,
                  [&](std::size_t k) { ++hits[i * 9 + j * 3 + k]; },
                  /*grain=*/1);
            },
            /*grain=*/1);
      },
      /*grain=*/1);
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(GlobalPool, IsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(GlobalPool, ScopedPoolIsGlobalUntilDestroyedAndNests) {
  ThreadPool* const process = &ThreadPool::global();
  {
    ScopedGlobalPool outer(3);
    ThreadPool* const three = &ThreadPool::global();
    EXPECT_NE(three, process);
    EXPECT_EQ(three->thread_count(), 3u);
    {
      ScopedGlobalPool inner(1);
      EXPECT_EQ(ThreadPool::global().thread_count(), 1u);
    }
    EXPECT_EQ(&ThreadPool::global(), three);
  }
  EXPECT_EQ(&ThreadPool::global(), process);
}

TEST(GlobalPool, ThreadsFromEnvAcceptsDecimalCounts) {
  EXPECT_EQ(threads_from_env(nullptr), 0u);
  EXPECT_EQ(threads_from_env(""), 0u);
  EXPECT_EQ(threads_from_env("0"), 0u);
  EXPECT_EQ(threads_from_env("1"), 1u);
  EXPECT_EQ(threads_from_env("8"), 8u);
  EXPECT_EQ(threads_from_env("100000"), 100000u);
}

TEST(GlobalPool, ThreadsFromEnvRejectsEverythingElse) {
  for (const char* bad : {"abc", "-3", "+3", " 4", "4 ", "4x", "0x10", "2.5",
                          "99999999999999999999999"}) {
    try {
      threads_from_env(bad);
      ADD_FAILURE() << "accepted \"" << bad << "\"";
    } catch (const contract_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("DSEM_THREADS"), std::string::npos) << what;
      EXPECT_NE(what.find(bad), std::string::npos) << what;
    }
  }
}

} // namespace
} // namespace dsem
