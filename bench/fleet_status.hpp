// fleet_status.hpp — the failure rule of the benches that run a fleet: a
// job that did not end ok leaves a default row (0 gates, 0.0 ns), so the
// bench names it on stderr and exits 1 instead of printing that row as
// data or folding it into suite figures.

#pragma once

#include <cstdio>

#include "runner/runner.hpp"

namespace plee::bench {

/// Prints one stderr line, prefixed with `program`, per job of `fleet` that
/// did not end ok; true when there was one.
inline bool report_failed_jobs(const char* program, const runner::fleet_result& fleet) {
    for (const runner::job_result& r : fleet.results) {
        if (r.status == runner::job_status::ok) continue;
        std::fprintf(stderr, "%s: job %s %s: %s\n", program, r.id.c_str(),
                     runner::to_string(r.status), r.error.c_str());
    }
    return !fleet.all_ok();
}

}  // namespace plee::bench
