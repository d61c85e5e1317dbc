// Contract tests for the sweep parallelism layer (src/core/thread_pool.hpp):
// for_each covers every index exactly once for any team, cap and count, runs on
// the caller plus its helpers (inline under a cap of 1), completes when
// nested, and on a throw starts no further index and rethrows the first
// exception on the caller only after every helper has joined. run_sweep
// builds directly on these guarantees.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/thread_pool.hpp"

namespace ppsim {
namespace {

TEST(ThreadPool, ReportsItsThreadCount) {
    EXPECT_EQ(ThreadPool(3).thread_count(), 3U);
    EXPECT_EQ(ThreadPool(0).thread_count(), 0U);  // a team of none: the caller alone
}

TEST(ThreadPool, ParallelForVisitsEveryIndexOnce) {
    // The shared team under a cap, as bench_ablation and run_sweep use it.
    std::vector<std::atomic<int>> hits(500);
    shared_pool().for_each(500, [&](std::size_t i) { ++hits[i]; }, /*max_concurrency=*/4);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolForEach, CoversEveryIndexExactlyOnce) {
    for (const std::size_t helpers : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
        const ThreadPool pool(helpers);
        for (const std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                        std::size_t{257}}) {
            std::vector<std::atomic<int>> hits(count);
            pool.for_each(count, [&](std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
            });
            for (std::size_t i = 0; i < count; ++i) {
                ASSERT_EQ(hits[i].load(), 1)
                    << "index " << i << ", count " << count << ", helpers " << helpers;
            }
        }
    }
}

// A parallel for over `count` indices on at most `cap` threads is
// for_each(count, fn, cap): these vary the cap of one 16-helper team.
TEST(ThreadPoolParallelFor, CoversEveryIndexExactlyOnce) {
    const ThreadPool pool(16);
    for (const std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                  std::size_t{16}}) {
        const std::size_t count = 257;  // not a multiple of any cap
        std::vector<std::atomic<int>> hits(count);
        pool.for_each(
            count, [&](std::size_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
            cap);
        for (std::size_t i = 0; i < count; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", cap " << cap;
        }
    }
}

TEST(ThreadPoolParallelFor, HandlesDegenerateShapes) {
    const ThreadPool pool(8);
    std::atomic<int> calls{0};
    pool.for_each(0, [&](std::size_t) { calls.fetch_add(1); }, 8);
    EXPECT_EQ(calls.load(), 0);  // zero indices: no calls, no hang
    pool.for_each(
        1,
        [&](std::size_t i) {
            EXPECT_EQ(i, 0U);
            calls.fetch_add(1);
        },
        8);
    EXPECT_EQ(calls.load(), 1);  // a cap and a team larger than the count
    pool.for_each(5, [&](std::size_t) { calls.fetch_add(1); }, 1);
    EXPECT_EQ(calls.load(), 6);  // the inline path
}

TEST(ThreadPoolForEach, MaxConcurrencyOneRunsInlineOnTheCaller) {
    const ThreadPool pool(4);
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

TEST(ThreadPoolForEach, RunsConcurrentlyOnTheCallerAndThreeHelpers) {
    // Four tasks that each block until all four have started complete only
    // if the caller and all three helpers run one each (a serial or
    // caller-less loop would deadlock; the watchdog turns that into a
    // failure rather than a hung suite).
    std::atomic<bool> finished{false};
    std::thread watchdog([&finished] {
        for (int i = 0; i < 400 && !finished.load(); ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        EXPECT_TRUE(finished.load()) << "for_each serialised concurrent tasks";
        if (!finished.load()) std::abort();  // fail loudly instead of hanging forever
    });
    std::atomic<int> started{0};
    ThreadPool(3).for_each(4, [&](std::size_t) {
        started.fetch_add(1, std::memory_order_relaxed);
        while (started.load(std::memory_order_relaxed) < 4) {
            std::this_thread::yield();
        }
    });
    finished.store(true);
    watchdog.join();
}

TEST(ThreadPoolForEach, NestedCallsFromInsideTasksComplete) {
    // A fan-out started from inside fn starts helpers of its own.
    const ThreadPool pool(2);
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
    // surfaces on the caller at its first index.
    const ThreadPool pool(2);
    std::atomic<int> calls{0};
    EXPECT_THROW(pool.for_each(
                     4,
                     [&](std::size_t) {
                         calls.fetch_add(1);
                         throw std::runtime_error("inline");
                     },
                     /*max_concurrency=*/1),
                 std::runtime_error);
    EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolForEach, RethrowsAHelpersExceptionAndStartsNoFurtherIndex) {
    // The caller holds its first index until the helper has thrown, then
    // lingers long enough for the failure to be recorded: after that, neither
    // thread may claim another of the 64 indices.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> caller_in{false};
    std::atomic<bool> thrown{false};
    std::atomic<int> calls{0};
    std::atomic<int> late{0};
    const auto fn = [&](std::size_t) {
        calls.fetch_add(1);
        if (thrown.load()) late.fetch_add(1);
        if (std::this_thread::get_id() == caller) {
            caller_in.store(true);
            while (!thrown.load()) std::this_thread::yield();
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
            return;
        }
        while (!caller_in.load()) std::this_thread::yield();
        thrown.store(true);
        throw std::runtime_error("helper");
    };
    std::string message;
    try {
        ThreadPool(1).for_each(64, fn);
    } catch (const std::runtime_error& e) {
        message = e.what();
    }
    EXPECT_EQ(message, "helper");
    EXPECT_EQ(calls.load(), 2);
    EXPECT_EQ(late.load(), 0);
}

TEST(ThreadPoolForEach, CallersExceptionWaitsForRunningHelpers) {
    // The caller throws while a helper is still inside fn: for_each may
    // rethrow only once that helper has returned, since fn's captures die
    // with the caller's frame.
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<bool> helper_in{false};
    std::atomic<bool> caller_threw{false};
    std::atomic<bool> helper_done{false};
    const auto fn = [&](std::size_t) {
        if (std::this_thread::get_id() == caller) {
            while (!helper_in.load()) std::this_thread::yield();
            caller_threw.store(true);
            throw std::runtime_error("caller");
        }
        helper_in.store(true);
        while (!caller_threw.load()) std::this_thread::yield();
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        helper_done.store(true);
    };
    EXPECT_THROW(ThreadPool(1).for_each(2, fn), std::runtime_error);
    EXPECT_TRUE(helper_done.load());
}

TEST(ThreadPoolSharedPool, IsAStableProcessWideSingleton) {
    const ThreadPool& a = shared_pool();
    const ThreadPool& b = shared_pool();
    EXPECT_EQ(&a, &b);
    // hardware_concurrency − 1 helpers (min 1): with the caller, a fan-out
    // tops out at the hardware thread count.
    const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    EXPECT_EQ(a.thread_count(), std::max<std::size_t>(1, hw - 1));
}

}  // namespace
}  // namespace ppsim
