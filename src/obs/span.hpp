// span.hpp — per-job pipeline trace spans.
//
// A `trace` is a per-job record of nested, timed stages: every
// `run_ee_experiment` call carries one, and each pipeline stage
// (map_to_pl → ee.pass → measure, with an ee.search child inside ee.pass,
// and sim.golden, sim.compile and sim.run children inside measure, the one
// measurement that gives both arms) opens a `scoped_span` on entry and
// closes it on scope exit.  The result — start offset, duration, and parent
// index per span — rides in `job_result` so a fleet report can answer
// "where did this job's time go" per job, not just in aggregate.
//
// Design points:
//  * Nesting is by parent index into the span vector, maintained by a
//    current-span cursor in the trace — no thread-locals, no globals; a
//    trace belongs to one job on one thread at a time.
//  * `scoped_span` closes in its destructor, which also runs during
//    exception unwind: a job that throws mid-stage still ends with every
//    entered span closed, so failed / timed-out jobs report a *partial but
//    well-formed* breakdown (the acceptance criterion for the flight
//    recorder's companion).
//  * Everything is null-tolerant: `scoped_span{nullptr, "x"}` is a no-op,
//    so instrumented code runs untraced at zero cost when telemetry is off.
//  * Timestamps come from the trace's own plee::wall_timer epoch
//    (steady_clock), in ms relative to trace start.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "rt/wall_timer.hpp"

namespace plee::obs {

struct span_record {
    std::string name;
    double start_ms = 0.0;  ///< offset from trace epoch
    double dur_ms = 0.0;
    int parent = -1;  ///< index of enclosing span, -1 for roots

    bool operator==(const span_record&) const = default;
};

class trace {
public:
    trace() = default;

    /// Opens a span as a child of the currently open one; returns its index.
    std::size_t open(std::string name);

    /// Closes span `index`, fixing its duration and popping the cursor back
    /// to its parent.  Closing out of program order (exception unwind closes
    /// innermost-first) is well-defined.
    void close(std::size_t index);

    const std::vector<span_record>& spans() const { return spans_; }
    double elapsed_ms() const { return timer_.elapsed_ms(); }

private:
    wall_timer timer_;
    std::vector<span_record> spans_;
    int current_ = -1;
};

/// RAII stage marker.  Null trace → no-op.
class scoped_span {
public:
    scoped_span(trace* t, std::string name) : trace_(t) {
        if (trace_) index_ = trace_->open(std::move(name));
    }
    ~scoped_span() {
        if (trace_) trace_->close(index_);
    }
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

private:
    trace* trace_ = nullptr;
    std::size_t index_ = 0;
};

}  // namespace plee::obs
