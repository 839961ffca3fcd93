// quickstart — the paper's running example, end to end, in ~60 lines of API.
//
// Builds a full adder, maps it to Phased Logic, lets the Early Evaluation
// pass discover the carry trigger ab + a'b' (Table 1), and measures the
// delay with and without EE on random stimulus.
//
//   $ ./quickstart

#include <cstdio>
#include <string>

#include "ee/ee_transform.hpp"
#include "plogic/pl_mapper.hpp"
#include "report/experiment.hpp"
#include "synth/rtl.hpp"

using namespace plee;

int main() {
    // 1. Describe the circuit with the RTL builder: an 8-bit ripple adder, so
    //    the carry chain gives the later stages genuinely late carry-ins.
    syn::module_builder m("quickstart");
    const syn::bus a = m.input_bus("a", 8);
    const syn::bus b = m.input_bus("b", 8);
    const auto sum = m.add(a, b);
    m.output_bus("sum", sum.sum);
    m.output("carry", sum.carry);

    // 2. Synthesize to a LUT4+DFF netlist (the mapper enforces the paper's
    //    LUT4 fanin budget).
    const nl::netlist netlist = m.build();
    std::printf("synthesized: %zu LUT4 cells, %zu registers\n",
                netlist.num_luts(), netlist.dffs().size());

    // 3. Map to Phased Logic.  Every signal is closed into a live and safe
    //    marked-graph circuit by acknowledge feedbacks.
    pl::map_result mapped = pl::map_to_phased_logic(netlist);
    const pl::mg_report health = mapped.pl.verify();
    std::printf("phased logic: %zu PL gates, %zu ack edges "
                "(well-formed=%d live=%d safe=%d)\n",
                mapped.pl.num_pl_gates(), mapped.pl.num_ack_edges(),
                health.well_formed, health.live, health.safe);

    // 4. Apply generalized Early Evaluation (Section 3 of the paper).
    const ee::ee_stats stats = ee::apply_early_evaluation(mapped.pl);
    std::printf("early evaluation: %zu trigger gates attached\n",
                stats.triggers_added);
    for (const ee::applied_trigger& at : stats.applied) {
        std::printf("  master '%s': trigger %s, coverage %.0f%%, cost %.1f\n",
                    std::string(mapped.pl.name(at.master)).c_str(),
                    at.candidate.function.to_string().c_str(),
                    at.candidate.coverage_percent, at.candidate.cost);
    }

    // 5. Measure with the paper's protocol: 100 random vectors, average
    //    input-stable -> output-stable delay, outputs checked against the
    //    synchronous golden simulation on every wave.
    report::experiment_options opts;
    opts.measure.num_vectors = 100;
    const report::experiment_row row =
        report::run_ee_experiment("quickstart adder", netlist, opts);
    std::printf("\navg delay without EE: %.2f ns\n", row.delay_no_ee);
    std::printf("avg delay with EE:    %.2f ns\n", row.delay_ee);
    std::printf("speedup: %.1f%% for %.0f%% more gates\n",
                row.delay_decrease_pct, row.area_increase_pct);
    return 0;
}
