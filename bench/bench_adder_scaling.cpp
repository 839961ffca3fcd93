// bench_adder_scaling — the known-good case the paper builds on: "Early
// evaluation for addition circuits is well known ... for addition circuits
// this case is particularly advantageous since carry-in signals are the
// latest in arriving among the three inputs."
//
// Ripple-carry adders of growing width are pushed through the full pipeline;
// EE's relative win must grow with the carry-chain depth, because the
// generate/kill triggers cut the expected carry propagation from O(n) to the
// longest propagate run (O(log n) on random inputs).

#include <cstdio>

#include "fleet_status.hpp"
#include "report/experiment.hpp"
#include "report/table.hpp"
#include "synth/rtl.hpp"
#include "vectors_env.hpp"

using namespace plee;

namespace {

nl::netlist make_adder(const std::string& name, int width) {
    syn::module_builder m(name);
    const syn::bus a = m.input_bus("a", width);
    const syn::bus b = m.input_bus("b", width);
    const auto r = m.add(a, b);
    m.output_bus("sum", r.sum);
    m.output("cout", r.carry);
    return m.build();
}

}  // namespace

int main() {
    const std::size_t vectors = bench::vectors_from_env();

    std::printf("Ripple-carry adder scaling (%zu random vectors per width)\n\n",
                vectors);
    report::text_table t({"Width", "PL Gates", "EE Gates", "Avg Delay (ns)",
                          "Avg Delay EE (ns)", "% Delay Decr.", "EE hit rate"});

    for (int width : {4, 8, 12, 16, 24, 32}) {
        report::experiment_options opts;
        opts.measure.num_vectors = vectors;
        const std::string name = "adder" + std::to_string(width);
        const report::experiment_row row = bench::run_row(
            "bench_adder_scaling", name,
            [&] { return report::run_ee_experiment(name, make_adder(name, width), opts); });
        const double hits = static_cast<double>(row.stats_ee.ee_hits);
        const double total =
            hits + static_cast<double>(row.stats_ee.ee_misses);
        t.add_row({std::to_string(width), std::to_string(row.pl_gates),
                   std::to_string(row.ee_gates), report::fmt(row.delay_no_ee, 1),
                   report::fmt(row.delay_ee, 1),
                   report::fmt(row.delay_decrease_pct, 1) + "%",
                   total > 0 ? report::fmt(100.0 * hits / total, 0) + "%" : "-"});
        std::fflush(stdout);
    }
    std::printf("%s\n", t.to_string().c_str());
    std::printf("Expected shape: the no-EE delay grows linearly with width while\n"
                "the EE delay grows roughly with the longest propagate run, so\n"
                "the %% delay decrease climbs with width.\n");
    return 0;
}
