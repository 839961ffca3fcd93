// cancel.hpp — cooperative cancellation/deadline token.
//
// A cancel_token is owned by whoever supervises a job (the fleet runner,
// plee_flow's signal handler) and reaches the pipeline stages through the
// job's plee::job_context (rt/job_context.hpp).  The stages poll it at
// bounded intervals — the simulator every k_cancel_check_events events, the
// stimulus draw and the golden model once per 64-vector stimulus block, the
// EE search at every work-queue chunk — and job_context::poll raises
// plee::job_timeout when it has tripped, so a pathological job stops within
// a bounded amount of extra work instead of hanging its worker thread
// forever.
//
// The flag is monotonic (set-once); the deadline is fixed before the job
// starts.  Polling costs one relaxed atomic load; steady_clock::now() is
// only consulted when a deadline is armed.
//
// Tokens chain: a per-job token may name a parent (the fleet-wide interrupt
// token a SIGINT handler trips), and expired() consults the parent too.
// Tripping one parent therefore stops every job in the fleet at its next
// poll without the supervisor having to track per-job token pointers from a
// signal handler — the handler performs one atomic store, which is
// async-signal-safe.

#pragma once

#include <atomic>
#include <chrono>

namespace plee {

/// Simulator/search loops poll the token once per this many work units —
/// frequent enough that a tripped deadline stops the job in well under the
/// deadline itself on any realistic netlist, rare enough that the poll is
/// invisible next to the work it gates (< 0.1% on the fleet mix).
inline constexpr std::uint64_t k_cancel_check_events = 1024;

class cancel_token {
public:
    using clock = std::chrono::steady_clock;

    cancel_token() = default;

    /// Arms a wall-clock deadline `ms` milliseconds from now.
    void set_deadline_after_ms(double ms) {
        deadline_ = clock::now() + std::chrono::duration_cast<clock::duration>(
                                       std::chrono::duration<double, std::milli>(ms));
        has_deadline_ = true;
    }

    /// Requests cancellation (idempotent, thread-safe, async-signal-safe).
    void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

    bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

    /// Chains this token under `parent`: expired() reports true once either
    /// token trips.  Set before the job starts (not thread-safe against
    /// concurrent polls); the parent must outlive this token.
    void set_parent(const cancel_token* parent) { parent_ = parent; }

    /// True once cancelled (here or in a parent) or past the deadline — the
    /// poll the pipeline stages call.
    bool expired() const {
        if (cancelled()) return true;
        if (parent_ != nullptr && parent_->expired()) return true;
        return has_deadline_ && clock::now() >= deadline_;
    }

private:
    std::atomic<bool> cancelled_{false};
    bool has_deadline_ = false;
    clock::time_point deadline_{};
    const cancel_token* parent_ = nullptr;
};

}  // namespace plee
