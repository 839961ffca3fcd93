// bench_threshold_sweep — the area/delay trade-off the paper describes in
// Sections 4-5: "It is also possible to reduce the increase in area by
// requiring a candidate trigger function to have a cost value that exceeds
// some threshold.  Thresholding the cost function allows for a tradeoff in
// area versus delay of a PL circuit."
//
// For three representative circuits (the cipher b11, the line-counter b07
// and the Viper CPU subset b14) the cost threshold is swept from 0 (EE
// everywhere profitable — the Table 3 configuration) to infinity (no EE);
// each point reports the EE gate count, the area increase and the delay
// decrease relative to the no-EE baseline.

#include <cstdio>
#include <limits>

#include "bench_circuits/itc99.hpp"
#include "fleet_status.hpp"
#include "report/experiment.hpp"
#include "report/table.hpp"
#include "vectors_env.hpp"

using namespace plee;

int main() {
    const std::size_t vectors = bench::vectors_from_env();

    const double thresholds[] = {0.0, 60.0, 120.0, 240.0, 480.0, 960.0,
                                 std::numeric_limits<double>::infinity()};

    for (const char* id : {"b07", "b11", "b14"}) {
        const nl::netlist n = bench::build_benchmark(id);
        std::printf("Cost-threshold sweep on %s (%zu vectors)\n", id, vectors);
        report::text_table t({"Threshold", "EE Gates", "% Area Incr.",
                              "Avg Delay (ns)", "% Delay Decr."});

        double baseline_delay = 0.0;
        for (double threshold : thresholds) {
            report::experiment_options opts;
            opts.measure.num_vectors = vectors;
            opts.ee.search.cost_threshold = threshold;
            const std::string label = threshold == std::numeric_limits<double>::infinity()
                                          ? "inf (no EE)"
                                          : report::fmt(threshold, 0);
            const report::experiment_row row = bench::run_row(
                "bench_threshold_sweep", std::string(id) + " threshold " + label,
                [&] { return report::run_ee_experiment(id, n, opts); });
            if (baseline_delay == 0.0) baseline_delay = row.delay_no_ee;

            t.add_row({label, std::to_string(row.ee_gates),
                       report::fmt(row.area_increase_pct, 0) + "%",
                       report::fmt(row.delay_ee, 1),
                       report::fmt(row.delay_decrease_pct, 1) + "%"});
            std::fflush(stdout);
        }
        std::printf("%s\n", t.to_string().c_str());
    }
    std::printf("Expected shape: EE gates and area fall monotonically with the\n"
                "threshold while the delay saving decays toward zero — the\n"
                "paper's area-versus-delay dial.\n");
    return 0;
}
