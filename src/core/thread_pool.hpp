/// \file thread_pool.hpp
/// \brief A small fixed-size thread pool for the library's one parallel
/// layer: independent simulation repetitions (one PRNG stream per task via
/// derive_seed). Every run itself is sequential.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"

namespace ppsim {

/// Fixed-size pool of worker threads executing queued tasks FIFO.
/// Destruction waits for all queued tasks to finish (no detached work).
class ThreadPool {
public:
    /// \param threads  worker count; 0 means hardware_concurrency (min 1).
    explicit ThreadPool(std::size_t threads = 0);

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    ~ThreadPool();

    /// Enqueues a task. Tasks must not throw: an exception escaping a task is
    /// caught in the worker loop, reported to stderr, and terminates the
    /// program (tasks should capture and report their errors). Enforced
    /// explicitly — tests/test_thread_pool.cpp pins the contract.
    void submit(std::function<void()> task);

    /// Blocks until every submitted task has completed, including tasks
    /// submitted by other tasks while the wait is in progress.
    void wait_idle();

    [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

    /// Runs fn(0), fn(1), …, fn(count−1) across this pool's workers and
    /// returns when all have completed. The calling thread participates as a
    /// runner, so (a) concurrency is up to thread_count() + 1 and (b) calling
    /// for_each from inside a pool task cannot deadlock — a nested call whose
    /// helpers never get a free worker is drained entirely by its caller.
    ///
    /// `max_concurrency` caps the number of threads running `fn` (0 = no cap
    /// beyond the pool size; 1 = run everything inline on the caller). An
    /// exception escaping `fn` on a *worker* terminates (the submit
    /// contract); on the calling thread it propagates to the caller.
    void for_each(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t max_concurrency = 0);

    /// Runs `count` indexed tasks and waits for completion: fn(0), fn(1), …,
    /// fn(count−1), on a fresh thread team of exactly `threads` members
    /// (0 = hardware concurrency). Unlike `shared_pool().for_each`, this can
    /// exceed the hardware thread count when explicitly asked to — the tool
    /// for tests that require genuine concurrency. Library code paths should
    /// prefer the shared pool, which never oversubscribes.
    static void parallel_for(std::size_t count, std::size_t threads,
                             const std::function<void(std::size_t)>& fn);

private:
    void worker_loop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::size_t in_flight_ = 0;
    bool stopping_ = false;
};

/// The process-wide pool used by the sweep/estimator layers. Sized to
/// hardware_concurrency − 1 workers (min 1): for_each callers participate as
/// runners, so total concurrency tops out at the hardware thread count and
/// nested fan-outs share this one team instead of multiplying thread teams.
[[nodiscard]] ThreadPool& shared_pool();

}  // namespace ppsim
