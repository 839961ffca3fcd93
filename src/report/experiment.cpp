#include "report/experiment.hpp"

#include <utility>

#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "report/json.hpp"

namespace plee::report {

experiment_row run_ee_experiment(const std::string& description,
                                 const nl::netlist& netlist,
                                 const experiment_options& options,
                                 const job_context& context) {
    experiment_row row;
    row.description = description;

    // One label for the whole run, so every typed error names the job.
    job_context ctx = context;
    if (ctx.label.empty()) ctx.label = description;

    // Each stage opens its own top-level span (the EE pass opens ee.pass
    // itself; sim.golden, sim.compile and sim.run nest inside measure), so
    // the trace reads as the stage sequence of the header comment.
    ctx.poll("pipeline.map", 0);
    pl::map_result mapped = [&] {
        const obs::scoped_span span(ctx.trace, "map_to_pl");
        return pl::map_to_phased_logic(netlist, options.map);
    }();
    row.pl_gates = mapped.pl.num_pl_gates();

    // Early Evaluation applied in place.  The EE pass only appends trigger
    // gates and their edges, so the EE netlist still holds the plain mapping,
    // and one simulation of it measures both arms (pl_sim.hpp's two time
    // planes).
    ctx.poll("pipeline.ee", 0);
    row.ee_detail = ee::apply_early_evaluation(mapped.pl, options.ee, ctx);
    row.ee_gates = mapped.pl.num_trigger_gates();
    sim::measure_arms arms = [&] {
        const obs::scoped_span span(ctx.trace, "measure");
        return sim::measure_both_arms(mapped.pl, &netlist, options.measure, ctx);
    }();
    row.delay_no_ee = arms.plain.avg_delay;
    row.stats_no_ee = arms.plain.stats;
    row.delay_hist_no_ee = std::move(arms.plain.delay_hist);
    row.delay_ee = arms.ee.avg_delay;
    row.stats_ee = arms.ee.stats;
    row.delay_hist_ee = std::move(arms.ee.delay_hist);
    row.sim_wall_ms = arms.ee.sim_wall_ms;

    row.lanes = options.measure.lanes;
    row.vectors_measured = arms.plain.delays.size() + arms.ee.delays.size();

    row.delay_diff = row.delay_no_ee - row.delay_ee;
    row.area_increase_pct =
        row.pl_gates == 0 ? 0.0
                          : 100.0 * static_cast<double>(row.ee_gates) /
                                static_cast<double>(row.pl_gates);
    row.delay_decrease_pct =
        row.delay_no_ee == 0.0 ? 0.0 : 100.0 * row.delay_diff / row.delay_no_ee;
    return row;
}

json to_json(const experiment_row& row) {
    json j = json::object();
    j.set("description", json::str(row.description));
    j.set("pl_gates", json::number(row.pl_gates));
    j.set("ee_gates", json::number(row.ee_gates));
    j.set("delay_no_ee_ns", json::number(row.delay_no_ee));
    j.set("delay_ee_ns", json::number(row.delay_ee));
    j.set("delay_diff_ns", json::number(row.delay_diff));
    j.set("area_increase_pct", json::number(row.area_increase_pct));
    j.set("delay_decrease_pct", json::number(row.delay_decrease_pct));
    j.set("triggers_added", json::number(row.ee_detail.triggers_added));
    j.set("masters_considered", json::number(row.ee_detail.masters_considered));
    j.set("sim_events", json::number(static_cast<std::int64_t>(
                            row.stats_no_ee.events + row.stats_ee.events)));
    j.set("sim_wall_ms", json::number(row.sim_wall_ms));
    j.set("lanes", json::number(row.lanes));
    j.set("vectors_measured", json::number(row.vectors_measured));
    j.set("vectors_per_s", json::number(row.vectors_per_s()));
    if (row.lanes > 1) {
        j.set("divergent_share", json::number(row.divergent_share()));
    }
    // Present only when the run collected them (telemetry on): the paper's
    // claim is distributional, so the row carries the distributions, in ns
    // (recorded ps / 1000).
    if (!row.delay_hist_no_ee.empty()) {
        j.set("delay_hist_no_ee_ns",
              obs::hist_to_json(row.delay_hist_no_ee, 1e3));
    }
    if (!row.delay_hist_ee.empty()) {
        j.set("delay_hist_ee_ns", obs::hist_to_json(row.delay_hist_ee, 1e3));
    }
    return j;
}

}  // namespace plee::report
