/// \file thread_pool.hpp
/// \brief The library's one parallel loop: fn(i) for every i < count on the
/// calling thread plus helper threads that the call starts and joins. Its
/// only users fan out independent simulation repetitions (one PRNG stream
/// per index via derive_seed); every run itself is sequential.
#pragma once

#include <cstddef>
#include <functional>

namespace ppsim {

/// A team size for `for_each`: the number of helper threads a call may start
/// beside its caller. No thread outlives the call that started it.
class ThreadPool {
public:
    explicit ThreadPool(std::size_t helpers) noexcept : helpers_(helpers) {}

    [[nodiscard]] std::size_t thread_count() const noexcept { return helpers_; }

    /// Runs fn(0), fn(1), …, fn(count−1), each exactly once, on the calling
    /// thread and on up to thread_count() helper threads started for this
    /// call, and returns once every helper has joined. `max_concurrency`
    /// caps the threads running `fn`, the caller included (0 = no cap
    /// beyond the team; 1 = everything inline on the caller). A nested call
    /// from inside `fn` starts helpers of its own.
    ///
    /// Once `fn` throws on any thread, no further index starts; the first
    /// exception is rethrown on the caller after every helper has joined.
    void for_each(std::size_t count, const std::function<void(std::size_t)>& fn,
                  std::size_t max_concurrency = 0) const;

private:
    std::size_t helpers_;
};

/// The process-wide team used by the sweep/estimator layers:
/// hardware_concurrency − 1 helpers (min 1), so a fan-out and its caller
/// top out at the hardware thread count.
[[nodiscard]] const ThreadPool& shared_pool();

}  // namespace ppsim
