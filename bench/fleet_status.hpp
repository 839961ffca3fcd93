// fleet_status.hpp — the failure rule of the paper drivers: a row that
// fails is named on stderr and the driver exits 1, instead of printing a
// default row (0 gates, 0.0 ns) as data, folding it into suite figures or
// aborting on an uncaught exception.  The benches that run a fleet read
// each job's status; the drivers that call run_ee_experiment directly run
// each row through run_row.

#pragma once

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "runner/runner.hpp"
#include "sim/errors.hpp"

namespace plee::bench {

/// Returns fn(), one row of `program`'s table.  A row that throws ends the
/// driver with exit status 1 and one stderr line, "<program>: <row>:
/// <what()>", with "budget_exhausted: " before the what() of an exhausted
/// event budget, as the fleet names that status.
template <class Fn>
auto run_row(const char* program, const std::string& row, Fn&& fn) {
    try {
        return fn();
    } catch (const sim::budget_exhausted& e) {
        std::fprintf(stderr, "%s: %s: budget_exhausted: %s\n", program, row.c_str(),
                     e.what());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s: %s\n", program, row.c_str(), e.what());
    }
    std::exit(1);
}

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
