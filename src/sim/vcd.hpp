// vcd.hpp — Value Change Dump export of PL simulation traces.
//
// Converts the token arrivals recorded by pl_simulator (collect_trace mode)
// into a standard VCD waveform: one logic signal per token-producing gate
// (the value rail of its output wire), viewable in GTKWave and friends.
// This is the debugging view the paper's authors would have had from qhsim.

#pragma once

#include <string>
#include <vector>

#include "plogic/pl_netlist.hpp"
#include "sim/pl_sim.hpp"

namespace plee::sim {

/// Renders a VCD document for `trace` over `pl`: one signal per gate that
/// drives a data edge, times in ns written as integer picoseconds
/// ($timescale 1ps).  Events are grouped per producing gate; only value
/// *changes* are emitted after the initial dump.
std::string to_vcd(const pl::pl_netlist& pl, const std::vector<trace_event>& trace);

}  // namespace plee::sim
