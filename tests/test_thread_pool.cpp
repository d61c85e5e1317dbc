// Contract tests for the sweep parallelism layer (src/core/thread_pool.hpp):
// wait_idle really waits for every submitted task (including tasks submitted
// while others run), for_each / parallel_for cover every index exactly once
// for any thread/count shape, submit's terminate-on-throw contract holds, and
// destruction drains the queue rather than dropping work. run_sweep builds
// directly on these guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"

namespace ppsim {
namespace {

TEST(ThreadPool, ReportsItsThreadCount) {
    ThreadPool pool(3);
    EXPECT_EQ(pool.thread_count(), 3U);
    ThreadPool defaulted(0);  // 0 = hardware concurrency, at least one
    EXPECT_GE(defaulted.thread_count(), 1U);
}

TEST(ThreadPool, WaitIdleSeesEverySubmittedTask) {
    ThreadPool pool(4);
    std::atomic<int> done{0};
    for (int round = 0; round < 5; ++round) {
        const int batch = 40;
        for (int i = 0; i < batch; ++i) {
            pool.submit([&done] {
                std::this_thread::sleep_for(std::chrono::microseconds(100));
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
        pool.wait_idle();
        // At the wait_idle barrier every task of every round so far is done.
        EXPECT_EQ(done.load(), (round + 1) * batch);
    }
}

TEST(ThreadPool, WaitIdleAfterMixedFastAndSlowSubmits) {
    ThreadPool pool(2);
    std::atomic<int> slow_done{0};
    std::atomic<int> fast_done{0};
    for (int i = 0; i < 4; ++i) {
        pool.submit([&slow_done] {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            slow_done.fetch_add(1, std::memory_order_relaxed);
        });
    }
    for (int i = 0; i < 200; ++i) {
        pool.submit([&fast_done] { fast_done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(slow_done.load(), 4);
    EXPECT_EQ(fast_done.load(), 200);
    // An idle pool must not block a second wait.
    pool.wait_idle();
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturnsImmediately) {
    ThreadPool pool(2);
    pool.wait_idle();  // nothing submitted: must not deadlock
    SUCCEED();
}

TEST(ThreadPool, DestructionDrainsTheQueue) {
    std::atomic<int> done{0};
    {
        // One worker and many slow tasks: most are still queued when the
        // destructor runs. The contract is drain-then-join, not drop.
        ThreadPool pool(1);
        for (int i = 0; i < 32; ++i) {
            pool.submit([&done] {
                std::this_thread::sleep_for(std::chrono::microseconds(500));
                done.fetch_add(1, std::memory_order_relaxed);
            });
        }
    }
    EXPECT_EQ(done.load(), 32);
}

TEST(ThreadPool, WaitIdleCoversTasksSubmittedFromWithinATask) {
    // A task that submits follow-up work mid-flight: wait_idle must count the
    // children too, because the sweep layer funnels nested work through one
    // shared pool. Two generations deep pins the recursion, not one level.
    ThreadPool pool(2);
    std::atomic<int> done{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &done] {
            pool.submit([&pool, &done] {
                pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
                done.fetch_add(1, std::memory_order_relaxed);
            });
            done.fetch_add(1, std::memory_order_relaxed);
        });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), 24);
}

TEST(ThreadPoolDeathTest, ExceptionEscapingATaskTerminates) {
    // submit's documented contract: tasks must not throw; one that does is
    // reported to stderr and terminates the process. Death tests fork, so the
    // terminate happens in the child — threadsafe style re-executes the test
    // binary, which is the only safe mode with live worker threads around.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            ThreadPool pool(1);
            pool.submit([] { throw std::runtime_error("boom"); });
            pool.wait_idle();
        },
        "exception escaped a ThreadPool task: boom");
}

TEST(ThreadPoolForEach, CoversEveryIndexExactlyOnce) {
    ThreadPool pool(3);
    for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                    std::size_t{257}}) {
        std::vector<std::atomic<int>> hits(count);
        pool.for_each(count,
                      [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); });
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", count " << count;
        }
    }
}

TEST(ThreadPoolForEach, MaxConcurrencyOneRunsInlineOnTheCaller) {
    ThreadPool pool(4);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> off_thread{0};
    pool.for_each(
        64,
        [&](std::size_t) {
            if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
        },
        /*max_concurrency=*/1);
    EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPoolForEach, NestedCallsFromInsideTasksComplete) {
    // A fan-out started from inside a pool task (a sweep driven from another
    // pooled job) finds the workers already occupied: for_each from within a
    // pool task must complete even when every worker is busy, because the
    // caller participates as a runner. A tiny pool maximises the chance all workers are occupied.
    ThreadPool pool(2);
    std::atomic<int> inner_total{0};
    pool.for_each(8, [&](std::size_t) {
        pool.for_each(16, [&](std::size_t) {
            inner_total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ThreadPoolForEach, PropagatesExceptionsFromTheCallingThread) {
    // With max_concurrency=1 every index runs inline, so a throwing fn
    // surfaces on the caller instead of tripping the worker terminate path.
    ThreadPool pool(2);
    EXPECT_THROW(
        pool.for_each(4, [](std::size_t) { throw std::runtime_error("inline"); },
                      /*max_concurrency=*/1),
        std::runtime_error);
}

TEST(ThreadPoolSharedPool, IsAStableProcessWideSingleton) {
    ThreadPool& a = shared_pool();
    ThreadPool& b = shared_pool();
    EXPECT_EQ(&a, &b);
    EXPECT_GE(a.thread_count(), 1U);
    // Sized so caller-as-runner tops out at the hardware thread count.
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    EXPECT_LE(a.thread_count() + 1, hw + 1);
}

TEST(ThreadPoolParallelFor, CoversEveryIndexExactlyOnce) {
    for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                      std::size_t{16}}) {
        const std::size_t count = 257;  // not a multiple of any thread count
        std::vector<std::atomic<int>> hits(count);
        ThreadPool::parallel_for(count, threads, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", threads " << threads;
        }
    }
}

TEST(ThreadPoolParallelFor, HandlesDegenerateShapes) {
    std::atomic<int> calls{0};
    ThreadPool::parallel_for(0, 8, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0);  // zero tasks: no calls, no hang
    ThreadPool::parallel_for(1, 8, [&](std::size_t i) {
        EXPECT_EQ(i, 0U);
        calls.fetch_add(1);
    });
    EXPECT_EQ(calls.load(), 1);  // more threads than tasks
    ThreadPool::parallel_for(5, 1, [&](std::size_t) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 6);  // single-threaded inline path
}

TEST(ThreadPoolParallelFor, RunsConcurrentlyWhenAskedTo) {
    // With 4 threads and 4 tasks that each block until all 4 have started,
    // completion proves the tasks really ran concurrently (an accidentally
    // serial implementation would deadlock; the watchdog converts that into
    // a failure rather than a hung suite).
    std::atomic<bool> finished{false};
    std::thread watchdog([&finished] {
        for (int i = 0; i < 400 && !finished.load(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        EXPECT_TRUE(finished.load()) << "parallel_for serialised concurrent tasks";
        if (!finished.load()) std::abort();  // fail loudly instead of hanging forever
    });
    std::atomic<int> started{0};
    ThreadPool::parallel_for(4, 4, [&](std::size_t) {
        started.fetch_add(1, std::memory_order_relaxed);
        while (started.load(std::memory_order_relaxed) < 4) {
            std::this_thread::yield();
        }
    });
    finished.store(true);
    watchdog.join();
}

}  // namespace
}  // namespace ppsim
