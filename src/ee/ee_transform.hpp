// ee_transform.hpp — the Early Evaluation synthesis pass over a PL netlist.
//
// "EE circuitry was added to all PL gates where a speedup was possible"
// (Section 4): for every compute gate, run the trigger search weighted by the
// gate's input arrival depths; when an implementable candidate exists, attach
// a trigger gate (the paper's master/trigger EE pair, Figure 2).  Under the
// default search.require_arrival_gain a trigger is computed only over early
// pins, those arriving before the master's last one (find_best_trigger); a
// master whose pins all arrive together costs no trigger work.  The pass
// ends with pl_netlist::verify().  A trigger attached to a well-formed, live
// and safe netlist keeps it so (pl_netlist::attach_trigger has the proof),
// so on a netlist verified before the pass (every mapped one) that check
// returns the remembered pass at once; any other netlist gets the full
// analysis.
//
// Setting `search.cost_threshold` > 0 reproduces the paper's area/delay
// trade-off: "Thresholding the cost function allows for a tradeoff in area
// versus delay of a PL circuit."

#pragma once

#include <vector>

#include "ee/trigger_search.hpp"
#include "plogic/pl_netlist.hpp"
#include "rt/job_context.hpp"

namespace plee::ee {

struct ee_options {
    search_options search;
    /// Worker threads for the per-gate trigger search (the netlist-scale hot
    /// loop).  0 = one per hardware thread, 1 = fully sequential.  The
    /// search phase is pure, results are collected per gate index, and the
    /// netlist mutation phase stays serial in gate order — so the transform
    /// is bit-identical for every thread count.
    unsigned num_threads = 0;
};

/// One applied master/trigger pair, for reporting.
struct applied_trigger {
    pl::gate_id master = pl::k_invalid_gate;
    pl::gate_id trigger = pl::k_invalid_gate;
    trigger_candidate candidate;
};

struct ee_stats {
    std::size_t masters_considered = 0;
    std::size_t triggers_added = 0;
    std::vector<applied_trigger> applied;
};

/// Applies Early Evaluation in place.  Arrival depths are computed once on
/// the incoming netlist (the paper's static arrival model), which must be
/// live: a token-free cycle throws std::logic_error before any trigger is
/// attached.  Every search worker polls `ctx` at each work-queue chunk it
/// claims (site "ee.search", progress = the chunk's first master), so a
/// pathological search stops within one chunk of extra work, and records an
/// "ee.chunk" beat (first master, masters) on ctx.recorder.  On ctx.trace
/// the pass opens an "ee.pass" span with one child, "ee.search", around the
/// trigger search alone.  With ctx.telemetry the pass adds its stats to the
/// ee.* registry counters.
ee_stats apply_early_evaluation(pl::pl_netlist& pl, const ee_options& options = {},
                                const job_context& ctx = {});

}  // namespace plee::ee
