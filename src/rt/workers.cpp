#include "rt/workers.hpp"

#include <algorithm>
#include <exception>
#include <thread>
#include <vector>

namespace plee {

unsigned worker_count(unsigned requested, std::size_t work) {
    unsigned threads = requested != 0 ? requested : std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
    return static_cast<unsigned>(
        std::min<std::size_t>(threads, std::max<std::size_t>(work, 1)));
}

void run_workers(unsigned threads, const std::function<void()>& worker) {
    threads = std::max(threads, 1u);
    std::vector<std::exception_ptr> errors(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    try {
        for (unsigned t = 1; t < threads; ++t) {
            pool.emplace_back([&worker, &errors, t] {
                try {
                    worker();
                } catch (...) {
                    errors[t] = std::current_exception();
                }
            });
        }
        worker();
    } catch (...) {
        errors[0] = std::current_exception();
    }
    for (std::thread& t : pool) t.join();
    for (const std::exception_ptr& e : errors) {
        if (e) std::rethrow_exception(e);
    }
}

}  // namespace plee
