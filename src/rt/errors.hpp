// errors.hpp — the typed failure taxonomy shared by the whole pipeline.
//
// The fleet runner turns a batch of netlists into a batch of results; for
// that to degrade gracefully one job's failure must be (a) catchable without
// discarding every other job and (b) distinguishable: an exhausted event
// budget, a simulator deadlock, a blown deadline and a malformed input call
// for different responses (report, report, cancel, reject).  Every
// deliberate throw in the pipeline therefore derives from plee::plee_error,
// and the fleet runner maps the exception type to the job's terminal
// status.  The pipeline is a pure function of circuit and stimulus, so a
// failed job would fail the same way again: each job runs once.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace plee {

/// Base of every deliberate pipeline throw.
class plee_error : public std::runtime_error {
public:
    explicit plee_error(const std::string& what) : std::runtime_error(what) {}
};

/// Cooperative deadline/cancellation expiry: a cancel_token tripped while the
/// job was mid-pipeline.  `where` names the check site ("sim.events",
/// "ee.search"), `label` the job ("b05" = job id), and `progress` how far
/// the stage got (events processed, chunks searched, vectors run) — the
/// partial-work snapshot a fleet log needs to tell a near-miss from a hang.
class job_timeout : public plee_error {
public:
    job_timeout(const std::string& where, const std::string& label,
                std::uint64_t progress)
        : plee_error(where + "[" + label + "]: deadline exceeded after " +
                     std::to_string(progress) + " work units"),
          progress_(progress) {}

    std::uint64_t progress() const { return progress_; }

private:
    std::uint64_t progress_;
};

}  // namespace plee
