// workload.hpp — deterministic synthetic netlist generation.
//
// The ITC99-style suite tops out at a few thousand PL gates; tracking
// netlist-scale throughput of the EE engine needs circuit families that can
// be scaled arbitrarily and regenerated bit-for-bit anywhere.  This module
// grows layered LUT+DFF DAGs from a single uint64 seed: every structural
// decision (layer sizes, fanin wiring, LUT functions, latch placement)
// comes from one splitmix64 stream with integer sampling, so the same
// parameters produce a byte-identical netlist on every run, platform and
// thread count.  Scenario presets shape the statistics toward recognizable
// circuit families — arithmetic datapaths, control FSMs, carry chains —
// while `generate` itself stays one general algorithm.
//
// Generated netlists pass nl::netlist::validate(), respect the configured
// fanin cap (LUT4 for the classic presets, LUT6/LUT8 for the wide-arity
// ones), and run through the full synth -> PL-map -> EE -> simulate
// pipeline (the tests drive one end-to-end per scenario).

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace plee::wl {

/// Named workload families.  See src/workload/README.md for the intent and
/// parameter shape of each preset.
enum class scenario : std::uint8_t {
    random_dag,     ///< uniform functions, mixed locality — the null family
    datapath_like,  ///< arithmetic templates (xor/maj/mux), deep and local
    control_fsm,    ///< latch-heavy sparse decodes with global wiring
    wide_adder,     ///< carry-chain shaped: 3-input heavy, maximal depth
    lut6_dag,       ///< wide-arity null family: uniform LUT5/LUT6 blocks
    lut8_datapath,  ///< widest blocks: LUT7/LUT8 arithmetic templates
};

const char* to_string(scenario s);
/// Accepts the to_string names ("datapath-like", ...); throws
/// std::invalid_argument for anything else.
scenario scenario_from_string(const std::string& name);
/// All scenarios, in enum order — for "mixed" fleets and sweeps.
const std::vector<scenario>& all_scenarios();

/// How LUT functions are sampled.
enum class function_mix : std::uint8_t {
    uniform,     ///< random truth tables with full support
    arithmetic,  ///< xor / majority / mux / and-or templates, NPN-scrambled
    control,     ///< sparse minterm decodes and their complements
};

struct workload_params {
    std::string name = "random-dag";
    std::uint64_t seed = 1;
    std::size_t num_gates = 200;   ///< LUT count (DFFs and ports come on top)
    std::size_t num_inputs = 16;
    std::size_t num_outputs = 8;
    int max_arity = 4;             ///< LUT fanin cap, 1..8 (4 = the paper's LUT4)
    /// Fraction of num_gates realized as state bits (DFFs fed from the last
    /// layers, readable everywhere — the generator's feedback loops).
    double latch_fraction = 0.12;
    /// Number of combinational layers; 0 derives ~sqrt(num_gates).
    std::size_t depth_layers = 0;
    /// Relative weight of arity 1..8 when sampling a LUT's fanin count; only
    /// the first `max_arity` entries are consulted.  The default matches the
    /// pre-wide-arity LUT4 shape bit-for-bit (entries 5..8 unreachable).
    std::array<int, 8> arity_weights{10, 20, 30, 40, 0, 0, 0, 0};
    /// Probability (0..1) that a fanin comes from the immediately previous
    /// layer rather than anywhere earlier — high values make deep chains.
    double locality = 0.6;
    function_mix mix = function_mix::uniform;
};

/// The preset parameter shape of a scenario at a given size.  `seed` flows
/// through unchanged; num_inputs/outputs/layers scale with num_gates.
workload_params scenario_params(scenario kind, std::size_t num_gates,
                                std::uint64_t seed);

/// Generates a valid synchronous netlist from the parameters.  Deterministic:
/// equal params (including seed) produce byte-identical netlists.  Throws
/// std::invalid_argument on unsatisfiable parameters.
nl::netlist generate(const workload_params& params);

}  // namespace plee::wl
