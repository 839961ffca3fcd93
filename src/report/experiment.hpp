// experiment.hpp — the end-to-end Table 3 experiment pipeline.
//
// One row of the paper's Table 3 is produced by one pass:
//   synchronous netlist -> PL mapping -> EE transform, in place
//     -> measure (100 random vectors: stimulus, golden outputs, one run)
// and reporting: PL gate count, EE gate count, both average delays, the
// delay difference, % area increase (EE gates / PL gates) and % delay
// decrease.  The netlist is mapped once, and one measurement of the EE
// netlist (sim::measure_both_arms) gives both arms: it draws the stimulus,
// runs the golden model once and simulates once, and the simulation's plain
// time plane is the mapping without the triggers.  The arms' PL outputs
// are the same words, checked against the golden outputs wave by wave.

#pragma once

#include <string>

#include "ee/ee_transform.hpp"
#include "netlist/netlist.hpp"
#include "obs/histogram.hpp"
#include "plogic/pl_mapper.hpp"
#include "rt/job_context.hpp"
#include "sim/measure.hpp"

namespace plee::report {

struct experiment_options {
    pl::map_options map{};
    ee::ee_options ee{};
    sim::measure_options measure{};
};

struct experiment_row {
    std::string description;
    std::size_t pl_gates = 0;       ///< compute + through gates, before EE
    std::size_t ee_gates = 0;       ///< trigger gates added
    double delay_no_ee = 0.0;       ///< ns, averaged over the random waves
    double delay_ee = 0.0;
    double delay_diff = 0.0;        ///< delay_no_ee - delay_ee
    double area_increase_pct = 0.0; ///< 100 * ee_gates / pl_gates
    double delay_decrease_pct = 0.0;///< 100 * delay_diff / delay_no_ee
    sim::sim_run_stats stats_no_ee;
    sim::sim_run_stats stats_ee;
    ee::ee_stats ee_detail;
    /// Wall time of the one event-simulation run that measured both arms
    /// (ms) — with both arms' event counts this tracks simulator events/s
    /// per circuit.
    double sim_wall_ms = 0.0;
    /// Stimulus lanes per engine pass (measure_options::lanes: 1 or 64).
    std::size_t lanes = 1;
    /// Vectors measured across both arms (twice the stimulus) — with
    /// sim_wall_ms this tracks measurement vectors/s per circuit.
    std::size_t vectors_measured = 0;
    /// Per-vector completion-time distributions (integer picoseconds; see
    /// measure_result::delay_hist).  Empty when telemetry was off.
    obs::hist_snapshot delay_hist_no_ee;
    obs::hist_snapshot delay_hist_ee;

    /// Measurement throughput (0 when the run was too fast to time).
    double vectors_per_s() const {
        return sim_wall_ms > 0.0
                   ? static_cast<double>(vectors_measured) * 1e3 / sim_wall_ms
                   : 0.0;
    }
    /// Lane mode: the share of both arms' sim events that carried a
    /// per-lane time slab — the divergent EE cones' share of the work.
    double divergent_share() const {
        const std::uint64_t events = stats_no_ee.events + stats_ee.events;
        return events == 0 ? 0.0
                           : static_cast<double>(stats_no_ee.lane_slab_deposits +
                                                 stats_ee.lane_slab_deposits) /
                                 static_cast<double>(events);
    }
};

/// Runs the full pipeline on one benchmark circuit, handing `ctx` to every
/// stage; an empty ctx.label becomes `description`.  `ctx` is polled before
/// the mapping (site "pipeline.map") and before the EE pass
/// ("pipeline.ee"), and the stages poll it inside.  On ctx.trace the pass
/// opens one span per stage, once each (map_to_pl → ee.pass → measure),
/// with an ee.search child (the trigger search alone) inside ee.pass, and
/// sim.golden (the stimulus's golden outputs), sim.compile (the wave
/// schedule) and sim.run children, in that order, inside measure.  Spans
/// close on exception unwind, so a failed run still carries a partial
/// breakdown.
experiment_row run_ee_experiment(const std::string& description,
                                 const nl::netlist& netlist,
                                 const experiment_options& options = {},
                                 const job_context& ctx = {});

class json;

/// One experiment row as a JSON object (the schema of BENCH_itc99.json).
json to_json(const experiment_row& row);

}  // namespace plee::report
