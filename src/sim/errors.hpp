// errors.hpp — typed simulator failures.
//
// The simulator's three deliberate runtime failures — event-budget
// exhaustion, deadlock, and the marked-graph/EE invariant checks —
// were indistinguishable runtime_error/logic_errors before; a fleet log full
// of "event budget exhausted" lines could not say which circuit, how far it
// got, or on which engine.  Each type here carries the circuit label (the
// job context's label, which the fleet runner sets to the job id), the
// event count at failure and the engine ("schedule" for what the
// constructor finds while compiling the netlist, "dataflow" for the
// sequential-wave protocol, "lane" for run_lanes), and renders them into
// what() as "(after N events, <engine> engine)", so a single log line is
// actionable.

#pragma once

#include <cstdint>
#include <string>

#include "rt/errors.hpp"

namespace plee::sim {

/// Base simulator failure: label + events + engine context.
class sim_error : public plee_error {
public:
    sim_error(const std::string& message, const std::string& label,
              std::uint64_t events, const char* engine)
        : plee_error("pl_simulator[" + (label.empty() ? "?" : label) +
                         "]: " + message + " (after " + std::to_string(events) +
                         " events, " + engine + " engine)"),
          events_(events) {}

    std::uint64_t events() const { return events_; }

private:
    std::uint64_t events_;
};

/// sim_options::max_events tripped — the runaway guard, not a logic error.
class budget_exhausted : public sim_error {
public:
    budget_exhausted(const std::string& label, std::uint64_t events,
                     const char* engine)
        : sim_error("event budget exhausted", label, events, engine) {}
};

/// The netlist cannot complete a wave: a token-free cycle (the message
/// names a gate on it and how many gates can never fire) or a sink without
/// a data input.  pl_simulator raises it from its constructor, engine
/// "schedule".
class deadlock_error : public sim_error {
public:
    deadlock_error(const std::string& label, const std::string& diagnostic,
                   std::uint64_t events, const char* engine)
        : sim_error("deadlock — " + diagnostic, label, events, engine) {}
};

/// A netlist pl_netlist::verify() rejects, marked out-edges of one producer
/// with different initial values, a LUT whose function's arity is not its
/// pin count, or an EE pair that fails its proof — all raised by
/// pl_simulator's constructor, engine "schedule"; always a bug in the
/// netlist or the transform, never recoverable.
class invariant_violation : public sim_error {
public:
    invariant_violation(const std::string& message, const std::string& label,
                        std::uint64_t events, const char* engine)
        : sim_error(message, label, events, engine) {}
};

}  // namespace plee::sim
