// job_context.hpp — the job a pipeline pass runs for.
//
// Every stage of the Table 3 pass (map, stimulus and golden run, EE search,
// both simulator protocols) needs the same things from whoever supervises
// it: a label for its errors, a cancel token to poll, the job's trace and
// flight recorder, and whether telemetry is on.  They travel together in one
// job_context, handed by const reference to each entry point as a trailing
// defaulted argument; the options structs keep only what changes the
// result.  A default context is a standalone call: unlabelled,
// uncancellable, untraced, with telemetry on.

#pragma once

#include <cstdint>
#include <string>

#include "rt/cancel.hpp"
#include "rt/errors.hpp"

namespace plee {

namespace obs {
class trace;
class flight_recorder;
}  // namespace obs

struct job_context {
    /// Names the job in every typed error ("b05" = job id); empty renders
    /// as "?".
    std::string label;
    /// Polled by poll(); not owned, null = never cancelled.
    const cancel_token* cancel = nullptr;
    /// Stage spans; not owned, null = untraced.
    obs::trace* trace = nullptr;
    /// Progress beats ("sim.progress", "ee.chunk") at the poll cadence.
    /// Internally synchronized, so the EE workers share it.  Not owned,
    /// null = off.
    obs::flight_recorder* recorder = nullptr;
    /// When false, skips everything observable-only: per-vector delay
    /// histograms and the registry flushes of measure and the EE pass.  The
    /// measurement itself is unchanged.
    bool telemetry = true;

    /// The one cancellation check: raises job_timeout(site, label,
    /// progress) once the token (or a parent) has expired.
    void poll(const char* site, std::uint64_t progress) const {
        if (cancel != nullptr && cancel->expired()) {
            throw job_timeout(site, label, progress);
        }
    }
};

}  // namespace plee
