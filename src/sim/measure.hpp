// measure.hpp — the paper's delay-measurement harness.
//
// Section 4: "These results are based upon the average statistics of 100
// simulations where the input vectors were randomly generated.  For each PL
// circuit, we determined the average delay time between the presence of a
// stable input vector and a stable output word."
//
// measure_average_delay drives a PL netlist with random vectors through the
// event simulator and aggregates the per-vector delays; when a golden
// synchronous netlist is supplied, every vector's primary outputs are checked
// against the synchronous simulation, proving the PL mapping (and any Early
// Evaluation circuitry) functionally transparent.
//
// A measure_reference holds the stimulus and the golden model's outputs on
// it.  Both depend only on the golden netlist, the source count and the
// options.  measure_average_delay(pl, golden, options) builds a reference
// and measures once.
//
// A Table 3 row measures both arms in one simulation: measure_both_arms
// compiles and runs the EE netlist once and reads the simulator's two time
// planes (pl_sim.hpp), `ee` for the netlist as it is and `plain` for the
// netlist with every trigger gate and its edges removed, which is the
// mapping before the EE pass.  The planes share their values, so the
// arms' outputs are the same words and one golden comparison checks both:
// one stimulus draw, one golden run, one compile and one run per row.
//
// Two stimulus protocols, selected by measure_options::lanes:
//
//  * lanes == 1 (default) — the paper's sequential protocol: one simulator
//    run over num_vectors waves, vector k+1 released when vector k's outputs
//    are stable.  Delays include the self-timed hand-off between waves.
//  * lanes == 64 — the throughput protocol: each vector is an independent
//    single-vector simulation from reset, and 64 of them advance through one
//    lane-parallel engine pass (pl_simulator::run_lanes).  Per-vector
//    results are bit-identical to running each vector alone; the golden
//    check runs through the 64-lane synchronous model.  This is the path the
//    BENCH_sim.json `lanes` row measures (~an order of magnitude more
//    vectors/s on the sync golden model, and several times the serial PL
//    vectors/s).
//
// The two protocols measure different quantities for sequential hand-off
// reasons (wave k's delay starts at wave k-1's stabilization in the
// sequential protocol, at t = 0 in the independent one), so `lanes` is an
// explicit experiment parameter, not a transparent optimization toggle.

#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/histogram.hpp"
#include "plogic/pl_netlist.hpp"
#include "rt/job_context.hpp"
#include "sim/pl_sim.hpp"
#include "sim/stimulus.hpp"

namespace plee::sim {

struct measure_options {
    /// The paper's 100 random simulations.  0 throws std::invalid_argument.
    std::size_t num_vectors = 100;
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    /// Stimulus lanes evaluated at once: 1 = the sequential-wave protocol,
    /// k_lanes (64) = lane-parallel independent vectors.  Anything else
    /// throws std::invalid_argument.
    std::size_t lanes = 1;
    sim_options sim{};
};

struct measure_result {
    double avg_delay = 0.0;
    double min_delay = 0.0;
    double max_delay = 0.0;
    double stddev = 0.0;
    std::vector<double> delays;  ///< per vector
    sim_run_stats stats;
    /// Wall time of the event-simulation run itself (excludes the golden
    /// comparison) — with stats.events this yields sim events/s, with
    /// delays.size() vectors/s.  Both arms of measure_both_arms carry the
    /// one run's time: do not add them.
    double sim_wall_ms = 0.0;
    /// The lane count the measurement actually used.
    std::size_t lanes = 1;
    /// Per-vector completion-time distribution in integer picoseconds
    /// (delay_ns * 1000 rounded), so the histogram's <0.8% bucket error
    /// dominates quantization.  Empty when the job context's telemetry is
    /// off.
    obs::hist_snapshot delay_hist;

    /// Measurement throughput (0 when the run was too fast to time).
    double vectors_per_s() const {
        return sim_wall_ms > 0.0
                   ? static_cast<double>(delays.size()) * 1e3 / sim_wall_ms
                   : 0.0;
    }
};

/// The stimulus of a measurement and, optionally, the golden model's
/// outputs on it.  Build it with make_measure_reference.
struct measure_reference {
    std::size_t lanes = 1;  ///< the protocol `expected` was computed under
    std::size_t width = 0;  ///< inputs per vector: the PL source count
    std::vector<stimulus_block> blocks;
    /// True when `expected` holds a golden netlist's outputs.
    bool golden = false;
    std::size_t num_outputs = 0;
    /// Golden outputs, one word per output per block: bit L of word
    /// b * num_outputs + j is output j of vector 64*b + L.  At lanes 1 that
    /// vector is wave 64*b + L of one sequential run; at lanes 64 it runs
    /// alone from reset.  Lanes past a block's num_vectors are zero.
    std::vector<std::uint64_t> expected;
};

/// Deterministic pseudo-random stimulus, one vector per wave.  Unpacks
/// make_stimulus blocks, so lane L of block B == vector 64*B + L per seed.
std::vector<std::vector<bool>> random_vectors(std::size_t count, std::size_t width,
                                              std::uint64_t seed);

/// Draws options.num_vectors vectors of `width` inputs from options.seed
/// and, when `golden` is not null, runs the golden model over them once
/// under the options.lanes protocol, in a "sim.golden" span of ctx.trace.
/// Both the draw and the golden run poll `ctx` once per 64-vector stimulus
/// block, at site "sim.stimulus" or "sim.golden".  Throws
/// std::invalid_argument when options.lanes is not 1 or 64,
/// options.num_vectors is 0, or `width` is not the golden input count.
measure_reference make_measure_reference(const nl::netlist* golden,
                                         std::size_t width,
                                         const measure_options& options = {},
                                         const job_context& ctx = {});

/// Runs the measurement protocol over the reference's stimulus, with
/// "sim.compile" and "sim.run" spans on ctx.trace and the simulator under
/// `ctx`.  When the reference carries golden outputs, any wave whose PL
/// outputs differ throws a plee_error ("... diverge from the synchronous
/// golden model on k of n waves").  options.num_vectors and options.seed
/// are not read: the reference fixes the stimulus.  Throws
/// std::invalid_argument when the reference's width is not pl's source
/// count, its protocol is not options.lanes, or its golden output count is
/// not pl's sink count.  The result is measure_both_arms's `ee` arm, pl as
/// it is, and only that arm flushes into the registry: the single-arm API.
measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const measure_reference& reference,
                                     const measure_options& options = {},
                                     const job_context& ctx = {});

/// The two arms of a Table 3 row, measured by measure_both_arms.
struct measure_arms {
    measure_result plain;  ///< the netlist without its trigger gates
    measure_result ee;     ///< the netlist as it is
};

/// Both arms of a Table 3 row from one simulation of the EE netlist `pl`:
/// `plain` measures pl with every trigger gate and its edges removed (the
/// mapping before the EE pass), `ee` measures pl as it is.  One "sim.compile"
/// and one "sim.run" span, one golden comparison (the arms' outputs are the
/// same words) and the checks and throws of measure_average_delay, whose
/// result is the `ee` arm.  With ctx.telemetry, both arms flush into the
/// registry (sim.events, sim.vectors, sim.ee.*, sim.vector_delay_ps) and
/// the run adds one sim.measure_wall_us sample.
measure_arms measure_both_arms(const pl::pl_netlist& pl,
                               const measure_reference& reference,
                               const measure_options& options = {},
                               const job_context& ctx = {});

/// make_measure_reference for pl's sources, then the measurement.
/// `golden` may be null to skip the functional comparison (e.g. for
/// hand-built PL netlists).
measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const nl::netlist* golden,
                                     const measure_options& options = {},
                                     const job_context& ctx = {});

}  // namespace plee::sim
