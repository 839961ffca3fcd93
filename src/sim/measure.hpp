// measure.hpp — the paper's delay-measurement harness.
//
// Section 4: "These results are based upon the average statistics of 100
// simulations where the input vectors were randomly generated.  For each PL
// circuit, we determined the average delay time between the presence of a
// stable input vector and a stable output word."
//
// A measurement is one call: it draws the random vectors, runs the golden
// synchronous netlist over them when one is supplied, then compiles the PL
// netlist and simulates every vector in one simulator run, and aggregates
// the per-vector delays.  Every vector's primary outputs are checked
// against the golden model's, proving the PL mapping (and any Early
// Evaluation circuitry) functionally transparent.
//
// There are two entry points.  measure_both_arms gives both arms of a
// Table 3 row from one simulation of the EE netlist: it reads the
// simulator's two time planes (pl_sim.hpp), `ee` for the netlist as it is
// and `plain` for the netlist with every trigger gate and its edges
// removed, which is the mapping before the EE pass.  The planes share
// their values, so the arms' outputs are the same words and one golden
// comparison checks both: one stimulus draw, one golden run, one compile
// and one run per row.  measure_average_delay is its `ee` arm alone, for a
// netlist measured as it is.
//
// Two stimulus protocols, selected by measure_options::lanes:
//
//  * lanes == 1 (default) — the paper's sequential protocol: one simulator
//    run over num_vectors waves, vector k+1 released when vector k's outputs
//    are stable.  Delays include the self-timed hand-off between waves.
//  * lanes == 64 — the throughput protocol: each vector is an independent
//    single-vector simulation from reset, and 64 of them advance through one
//    lane-parallel wave; one pl_simulator::run_lanes call runs every block.
//    Per-vector results are bit-identical to running each vector alone; the
//    golden check runs through the 64-lane synchronous model.
//    BENCH_sim.json's `lanes: 64` rows time this run, and its golden row
//    the two golden models (about 9x the scalar model's vectors/s at 64
//    lanes).
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

/// Deterministic pseudo-random stimulus, one vector per wave.  Unpacks
/// make_stimulus blocks, so lane L of block B == vector 64*B + L per seed.
std::vector<std::vector<bool>> random_vectors(std::size_t count, std::size_t width,
                                              std::uint64_t seed);

/// The two arms of a Table 3 row, measured by measure_both_arms.
struct measure_arms {
    measure_result plain;  ///< the netlist without its trigger gates
    measure_result ee;     ///< the netlist as it is
};

/// Both arms of a Table 3 row from one measurement of the EE netlist `pl`:
/// `plain` measures pl with every trigger gate and its edges removed (the
/// mapping before the EE pass), `ee` measures pl as it is.
///
/// First, before anything is drawn, throws std::invalid_argument when
/// `golden` is not null and its input or output count is not pl's source
/// or sink count, when options.lanes is not 1 or 64, or when
/// options.num_vectors is 0.  Then it draws options.num_vectors vectors
/// from options.seed and, when `golden` is not null, runs the golden model
/// over them under the options.lanes protocol in a "sim.golden" span of
/// ctx.trace; both poll `ctx` once per 64-vector block, at site
/// "sim.stimulus" or "sim.golden".  Then one "sim.compile" span builds the
/// simulator under `ctx` and one "sim.run" span runs every vector.  Any
/// vector whose PL outputs differ from the golden model's throws a
/// plee_error ("... diverge from the synchronous golden model on k of n
/// waves"); the arms' outputs are the same words, so one comparison checks
/// both.  `golden` may be null to skip the golden run and the comparison
/// (e.g. for hand-built PL netlists).  With ctx.telemetry, both arms flush
/// into the registry (sim.events, sim.vectors, sim.ee.*,
/// sim.vector_delay_ps) and the run adds one sim.measure_wall_us sample.
measure_arms measure_both_arms(const pl::pl_netlist& pl, const nl::netlist* golden,
                               const measure_options& options = {},
                               const job_context& ctx = {});

/// measure_both_arms's `ee` arm, pl as it is, with the same checks, spans
/// and throws; only that arm flushes into the registry.
measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const nl::netlist* golden,
                                     const measure_options& options = {},
                                     const job_context& ctx = {});

}  // namespace plee::sim
