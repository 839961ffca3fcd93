// bench_fig1_fig2_structure — regenerates the structural content of the
// paper's Figure 1 (the PL gate) and Figure 2 (the EE master/trigger pair).
//
// Figure 1 is demonstrated behaviourally: a LUT4 PL gate with LEDR-encoded
// inputs, its Muller-C completion detector, the output latches, and the
// producer/consumer feedback signals, traced over two firing waves.
//
// Figure 2 is demonstrated structurally: the paper's running example — a
// full-adder carry master F = C(A+B) + AB paired with the trigger
// F = AB + A'B' — is built as a real PL netlist and dumped both as a wiring
// report and as Graphviz (written to fig2_ee_pair.dot).  Exits 1 when the
// netlist fails its marked-graph check after the EE pass, or when
// fig2_ee_pair.dot cannot be written (the error names the file).

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "bool/support.hpp"
#include "ee/ee_transform.hpp"
#include "plogic/ledr.hpp"
#include "plogic/pl_mapper.hpp"
#include "rt/atomic_write.hpp"
#include "synth/rtl.hpp"

using namespace plee;

namespace {

void figure1_behavioural_trace() {
    std::printf("Figure 1. Phased Logic Gate Structure (behavioural trace)\n");
    std::printf("  components: input-phase completion detection (equivalence\n");
    std::printf("  gates + Muller-C), LUT4 function circuit, v/t output latches,\n");
    std::printf("  feedbacks fi (to producers) and fo (to consumers).\n\n");

    // A 4-input AND gate receiving one token per input per wave.
    pl::muller_c gate_phase(false);
    std::vector<pl::ledr_signal> inputs(4);
    pl::ledr_signal output;

    const bool wave_values[2][4] = {{true, true, false, true},
                                    {true, true, true, true}};
    for (int wave = 0; wave < 2; ++wave) {
        std::printf("wave %d:\n", wave + 1);
        std::vector<bool> phases;
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            inputs[i] = inputs[i].next_token(wave_values[wave][i]);
            std::printf("  input %zu token %s\n", i, inputs[i].to_string().c_str());
        }
        for (const auto& s : inputs) {
            phases.push_back(s.signal_phase() == pl::phase::odd);
        }
        const bool before = gate_phase.output();
        const bool after = gate_phase.update(phases);
        const bool fired = before != after;
        std::printf("  Muller-C saw matching input phases -> gate %s\n",
                    fired ? "FIRES" : "holds");
        if (fired) {
            bool lut_out = true;
            for (const auto& s : inputs) lut_out = lut_out && s.v;  // AND4
            output = output.next_token(lut_out);
            std::printf("  LUT4(AND) latched: output token %s\n",
                        output.to_string().c_str());
            std::printf("  fi (ack to producers) toggles to %d, fo (to consumers) "
                        "toggles to %d\n",
                        static_cast<int>(!after), static_cast<int>(output.signal_phase() ==
                                                                   pl::phase::even));
        }
    }
    std::printf("\n");
}

/// Returns whether the EE'd netlist passes the full marked-graph analysis.
bool figure2_structural_dump() {
    std::printf("Figure 2. Early Evaluation PL Gate Pair (structural dump)\n");
    std::printf("  master:  F = C(A+B) + AB   (full-adder carry)\n");
    std::printf("  trigger: F = AB + A'B'     (efire into the master)\n\n");

    // Build a - b - cin -> carry as real logic and apply the EE pass.  The
    // carry-in is given extra logic depth so the {A,B} trigger wins, as in
    // the paper's ripple-adder motivation.
    syn::module_builder m("fig2");
    auto& ar = m.arena();
    const syn::expr_id a = m.input("A");
    const syn::expr_id b = m.input("B");
    const syn::bus c_lo = m.input_bus("Clo", 2);
    const syn::bus c_hi = m.input_bus("Chi", 2);
    // carry-in = deep comparison logic (arrival depth > A, B).
    const syn::expr_id cin = m.eq(c_lo, c_hi);
    const syn::expr_id carry =
        ar.or_(ar.and_(cin, ar.or_(a, b)), ar.and_(a, b));
    m.output("COUT", carry);

    pl::map_result mapped = pl::map_to_phased_logic(m.build());
    const ee::ee_stats stats = ee::apply_early_evaluation(mapped.pl);

    std::printf("EE pairs created: %zu\n", stats.triggers_added);
    for (const ee::applied_trigger& at : stats.applied) {
        const pl::pl_gate& master = mapped.pl.gate(at.master);
        const pl::pl_gate& trig = mapped.pl.gate(at.trigger);
        std::printf("  master gate %u '%s' (LUT %s)\n", at.master,
                    std::string(mapped.pl.name(at.master)).c_str(),
                    master.function.to_string().c_str());
        std::printf("    trigger gate %u over master pins {", at.trigger);
        bool first = true;
        for (int p : bf::support_members(at.candidate.support)) {
            std::printf("%s%d", first ? "" : ",", p);
            first = false;
        }
        std::printf("} trigger LUT %s\n", trig.function.to_string().c_str());
        std::printf("    coverage %.0f%%, Mmax %d, Tmax %d, cost %.1f\n",
                    at.candidate.coverage_percent, at.candidate.master_max_arrival,
                    at.candidate.trigger_max_arrival, at.candidate.cost);
        std::printf("    efire edge: trigger -> master (data), ack: master -> "
                    "trigger (the extra Muller-C pair)\n");
    }

    const pl::mg_report report = pl::verify_marked_graph(mapped.pl);
    std::printf("\nmarked graph after EE: well-formed=%d live=%d safe=%d\n",
                report.well_formed, report.live, report.safe);

    try {
        atomic_write_text("fig2_ee_pair.dot", mapped.pl.to_dot("fig2_ee_pair"));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_fig1_fig2_structure: cannot write fig2_ee_pair.dot: %s\n",
                     e.what());
        return false;
    }
    std::printf("Graphviz wiring written to fig2_ee_pair.dot (triggers drawn as "
                "diamonds, acks dashed, initial tokens starred).\n");
    return report.ok();
}

}  // namespace

int main() {
    figure1_behavioural_trace();
    return figure2_structural_dump() ? 0 : 1;
}
