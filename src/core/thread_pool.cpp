#include "thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace ppsim {

void ThreadPool::for_each(std::size_t count, const std::function<void(std::size_t)>& fn,
                          std::size_t max_concurrency) const {
    std::size_t helpers = std::min(helpers_, count > 0 ? count - 1 : 0);
    if (max_concurrency != 0) helpers = std::min(helpers, max_concurrency - 1);

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto fail = [&](std::exception_ptr e) {
        const std::lock_guard lock(error_mutex);
        if (!error) error = std::move(e);
        failed = true;
    };
    const auto run = [&] {
        try {
            while (!failed) {
                const std::size_t i = next++;
                if (i >= count) return;
                fn(i);
            }
        } catch (...) {
            fail(std::current_exception());
        }
    };

    std::vector<std::thread> team;
    team.reserve(helpers);
    try {
        while (team.size() < helpers) team.emplace_back(run);
    } catch (...) {  // a helper that cannot start stops the call like a throwing fn
        fail(std::current_exception());
    }
    run();
    for (std::thread& helper : team) helper.join();
    if (error) std::rethrow_exception(error);
}

const ThreadPool& shared_pool() {
    static const ThreadPool pool(std::max<std::size_t>(
        1, std::max<std::size_t>(1, std::thread::hardware_concurrency()) - 1));
    return pool;
}

}  // namespace ppsim
