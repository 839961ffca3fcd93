// flight_recorder.hpp — per-job ring buffer of recent pipeline events.
//
// When a fleet job fails, times out, or exhausts its event budget, the
// exception's what() says *what* died but not *what the job was doing in the
// moments before*.  The flight recorder answers that: a fixed-size ring of
// the last ~128 coarse events — simulator progress beats (one per
// k_cancel_check_events = 1024 events, riding the cancel-poll branch the hot
// loops already take), EE-search chunk starts and error sites — dumped into
// the failure report for non-ok jobs.  Healthy jobs pay for the recording but
// never serialize it.
//
// Cost model: record() takes a mutex, but is called at the cancel-check
// cadence (every 1024 simulator events), so the amortized hot-loop cost is
// one branch — the same branch the cancel poll already owns.  It is NOT for
// per-event use.
//
// `tag` must be a string literal (or otherwise static storage): events store
// the pointer, not a copy.  The optional `note` is an owned string for the
// rare sites (errors) that need dynamic context.  Stages record only into
// the recorder their options hand them; null means off.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "rt/wall_timer.hpp"

namespace plee::obs {

struct fr_event {
    double t_ms = 0.0;       ///< ms since the recorder's epoch
    const char* tag = "";    ///< static string, e.g. "sim.progress"
    std::uint64_t a = 0;     ///< tag-specific payload (event count, index…)
    std::uint64_t b = 0;
    std::string note;        ///< optional dynamic context (error text…)
};

class flight_recorder {
public:
    static constexpr std::size_t k_default_capacity = 128;

    explicit flight_recorder(std::size_t capacity = k_default_capacity);
    flight_recorder(const flight_recorder&) = delete;
    flight_recorder& operator=(const flight_recorder&) = delete;

    void record(const char* tag, std::uint64_t a = 0, std::uint64_t b = 0);
    void record_note(const char* tag, std::string note, std::uint64_t a = 0);

    /// The retained events, oldest first (at most capacity() of them).
    std::vector<fr_event> dump() const;

    /// Total record() calls ever, including overwritten ones.
    std::uint64_t total_recorded() const;

    std::size_t capacity() const { return ring_.size(); }

private:
    void push(fr_event&& e);

    mutable std::mutex mu_;
    wall_timer timer_;
    std::vector<fr_event> ring_;  ///< fixed size; slot = total_ % capacity
    std::uint64_t total_ = 0;
};

}  // namespace plee::obs
