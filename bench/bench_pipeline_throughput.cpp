// bench_pipeline_throughput — extension: Early Evaluation under token
// streaming.
//
// Table 3 uses the paper's vector-at-a-time protocol ("new values cannot be
// presented to the inputs until a stable output is generated").  PL circuits
// also run *pipelined*, with the environment injecting tokens as fast as the
// acknowledge feedbacks allow — the self-timed iterative-ring operation of
// the related work ([9], [12]).  This bench measures both protocols on the
// arithmetic benchmarks.  Pipelined throughput is set by the slowest token
// loop (register -> logic -> register); Early Evaluation shortens the
// forward path inside those loops, so the loop period shrinks and the
// throughput gain can even exceed the vector-at-a-time latency gain.
//
// Each mode is one measurement of the EE netlist, which gives both arms
// (the plain arm is the netlist without its triggers, the mapping before
// the EE pass) and checks every wave against the synchronous golden model.
// A failed measurement names the circuit on stderr and exits 1.

#include <cstdio>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "fleet_status.hpp"
#include "plogic/pl_mapper.hpp"
#include "report/table.hpp"
#include "sim/measure.hpp"
#include "vectors_env.hpp"

using namespace plee;

namespace {

/// Waves per microsecond of a pipelined arm.  Release is 0 in pipelined
/// mode, so the last wave's delay is the makespan.
double waves_per_us(const sim::measure_result& streamed) {
    const double makespan = streamed.delays.back();
    return makespan > 0
               ? 1000.0 * static_cast<double>(streamed.delays.size()) / makespan
               : 0.0;
}

}  // namespace

int main() {
    const std::size_t vectors = bench::vectors_from_env();

    std::printf("Vector-at-a-time latency vs pipelined throughput "
                "(%zu vectors)\n\n", vectors);
    report::text_table t({"Circuit", "Latency (ns)", "Latency EE (ns)",
                          "Latency gain", "Thru (waves/us)", "Thru EE",
                          "Thru gain"});

    for (const char* id : {"b05", "b11", "b14"}) {
        const nl::netlist netlist = bench::build_benchmark(id);
        pl::map_result mapped = pl::map_to_phased_logic(netlist);
        ee::apply_early_evaluation(mapped.pl);
        const auto measure = [&](bool non_pipelined) {
            sim::measure_options opts;
            opts.num_vectors = vectors;
            opts.seed = 77;
            opts.sim.non_pipelined = non_pipelined;
            return bench::run_row("bench_pipeline_throughput", id, [&] {
                return sim::measure_both_arms(mapped.pl, &netlist, opts);
            });
        };
        const sim::measure_arms latency = measure(true);
        const sim::measure_arms streamed = measure(false);
        const double lb = latency.plain.avg_delay;
        const double le = latency.ee.avg_delay;
        const double tb = waves_per_us(streamed.plain);
        const double te = waves_per_us(streamed.ee);

        t.add_row({id, report::fmt(lb, 1), report::fmt(le, 1),
                   report::fmt_pct(100.0 * (lb - le) / lb, 0),
                   report::fmt(tb, 1), report::fmt(te, 1),
                   report::fmt_pct(100.0 * (te - tb) / tb, 0)});
        std::fflush(stdout);
    }
    std::printf("%s\n", t.to_string().c_str());
    std::printf("Expected shape: both protocols gain; the deeper the logic\n"
                "inside the register-to-register token loops, the more the\n"
                "pipelined loop period shrinks — on the CPU subset the\n"
                "throughput gain exceeds the latency gain.\n");
    return 0;
}
