// workers.hpp — the one fork-join helper for the repository's thread pools.
//
// The fleet runner and the EE pass's trigger search both fan one worker
// function out over a few threads, each worker pulling items from a shared
// counter until none are left, so any number of workers yields the same
// result.  worker_count picks the thread count and run_workers runs,
// joins and rethrows, the same way for both.

#pragma once

#include <cstddef>
#include <functional>

namespace plee {

/// Threads for `work` items: `requested`, or one per hardware thread when
/// it is 0, at least 1 and at most max(work, 1).
unsigned worker_count(unsigned requested, std::size_t work);

/// Runs `worker` on `threads` threads (at least 1), the caller's one of
/// them, and joins them all.  A throw in any worker, or a failure to start a thread, still
/// joins every started thread; then the first exception is rethrown, the
/// caller's before the others'.
void run_workers(unsigned threads, const std::function<void()>& worker);

}  // namespace plee
