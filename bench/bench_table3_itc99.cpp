// bench_table3_itc99 — regenerates Table 3, the paper's headline experiment:
// all 15 ITC99-style benchmarks synthesized to Phased Logic with and without
// Early Evaluation, simulated with 100 random input vectors each.
//
// Columns match the paper: PL gate count (no EE), EE gate count, average
// input-stable -> output-stable delay without and with EE, the delay
// difference, % area increase (EE gates / PL gates) and % delay decrease.
// The paper's published numbers are printed alongside for a side-by-side
// shape comparison (absolute ns differ: our substrate is an event-driven
// simulator with a nominal delay model, not the authors' qhsim testbed).
//
// The suite runs through the sharded fleet runner: circuits are fanned over
// a worker pool.  Every reported number is bit-identical to the serial
// pipeline at any thread count (the runner's determinism contract, enforced
// in tests/test_runner.cpp); only the wall time changes.
//
// Set PLEE_VECTORS to override the number of random vectors (default 100).
// `--threads N` sizes the worker pool (default: one per hardware thread);
// `--seed S` overrides the stimulus seed (default: the fixed seed every
// prior PR used, so runs stay reproducible).  `--json <path>` additionally
// writes every row, the suite averages and the fleet summary as
// BENCH_itc99.json for cross-PR perf tracking.
//
// A job that does not end ok (a golden mismatch, the event budget, ...) is
// named on stderr, and the bench exits 1 with no table, averages or JSON;
// exit 2 is a usage error.

#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "fleet_status.hpp"
#include "report/experiment.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "rt/atomic_write.hpp"
#include "rt/parse.hpp"
#include "runner/runner.hpp"
#include "vectors_env.hpp"

using namespace plee;

namespace {

struct paper_row {
    const char* id;
    int pl_gates;
    int ee_gates;
    int delay_no_ee;
    int delay_ee;
    int area_pct;
    int delay_pct;
};

// Table 3 of the paper, for reference printing.
constexpr paper_row k_paper[] = {
    {"b01", 25, 9, 49, 43, 36, 12},     {"b02", 4, 0, 18, 18, 0, 0},
    {"b03", 78, 25, 49, 50, 32, -2},    {"b04", 274, 102, 84, 85, 37, -1},
    {"b05", 322, 136, 98, 88, 42, 10},  {"b06", 10, 1, 26, 27, 10, -3},
    {"b07", 240, 95, 87, 67, 40, 23},   {"b08", 82, 24, 66, 52, 29, 21},
    {"b09", 74, 23, 46, 45, 31, 2},     {"b10", 126, 49, 63, 59, 39, 6},
    {"b11", 275, 112, 132, 93, 41, 30}, {"b12", 635, 263, 80, 73, 41, 9},
    {"b13", 141, 44, 56, 51, 31, 9},    {"b14", 3360, 1565, 332, 207, 47, 38},
    {"b15", 5648, 2611, 336, 184, 46, 45},
};

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    unsigned threads = 0;  // 0 = hardware_concurrency
    sim::measure_options default_measure;
    std::uint64_t seed = default_measure.seed;
    const auto usage = [&] {
        std::fprintf(stderr, "usage: %s [--json <path>] [--threads N] [--seed S]\n",
                     argv[0]);
        return 2;
    };
    try {
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
                json_path = argv[++i];
            } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
                threads = parse_unsigned<unsigned>("--threads", argv[++i]);
            } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
                seed = parse_unsigned<std::uint64_t>("--seed", argv[++i]);
            } else {
                return usage();
            }
        }
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bench_table3_itc99: %s\n", e.what());
        return usage();
    }

    const std::size_t vectors = bench::vectors_from_env();

    std::printf("Table 3. Experimental Results Comparing the Use of EE in PL "
                "Synthesis\n(%zu random vectors per circuit; paper reference "
                "values in brackets)\n\n",
                vectors);
    std::fflush(stdout);

    std::vector<runner::fleet_job> jobs;
    for (const bench::benchmark_info& info : bench::itc99_suite()) {
        runner::fleet_job job;
        job.id = info.id;
        job.description = info.description;
        job.netlist = info.build();
        jobs.push_back(std::move(job));
    }

    runner::fleet_options fleet_opts;
    fleet_opts.num_threads = threads;
    fleet_opts.experiment.measure.num_vectors = vectors;
    fleet_opts.experiment.measure.seed = seed;
    const runner::fleet_result fleet = runner::run_fleet(jobs, fleet_opts);
    if (bench::report_failed_jobs("bench_table3_itc99", fleet)) return 1;

    report::text_table t({"Description", "PL Gates", "EE Gates", "Avg Delay (ns)",
                          "Avg Delay EE (ns)", "Delay Diff", "% Area Incr.",
                          "% Delay Decr."});

    double speedup_sum = 0.0;
    double area_sum = 0.0;
    int counted = 0;
    report::json json_rows = report::json::array();

    for (std::size_t i = 0; i < fleet.results.size(); ++i) {
        const runner::job_result& result = fleet.results[i];
        const report::experiment_row& row = result.row;
        const paper_row& ref = k_paper[i];

        t.add_row({result.id + (" " + row.description),
                   std::to_string(row.pl_gates) + " [" + std::to_string(ref.pl_gates) + "]",
                   std::to_string(row.ee_gates) + " [" + std::to_string(ref.ee_gates) + "]",
                   report::fmt(row.delay_no_ee, 1) + " [" + std::to_string(ref.delay_no_ee) + "]",
                   report::fmt(row.delay_ee, 1) + " [" + std::to_string(ref.delay_ee) + "]",
                   report::fmt(row.delay_diff, 1),
                   report::fmt(row.area_increase_pct, 0) + "% [" +
                       std::to_string(ref.area_pct) + "%]",
                   report::fmt(row.delay_decrease_pct, 0) + "% [" +
                       std::to_string(ref.delay_pct) + "%]"});

        speedup_sum += row.delay_decrease_pct;
        area_sum += row.area_increase_pct;
        ++counted;

        report::json jrow = report::to_json(row);
        jrow.set("id", report::json::str(result.id));
        jrow.set("wall_ms", report::json::number(result.wall_ms));
        json_rows.push(std::move(jrow));
    }

    std::printf("%s\n", t.to_string().c_str());
    std::printf("Suite averages: %.1f%% delay decrease (paper: >13%%), "
                "%.1f%% area increase (paper: ~33%%).\n",
                speedup_sum / counted, area_sum / counted);
    std::printf("Fleet: %u threads, %.0f ms wall, %.2f netlists/s, %.0f "
                "sweeps/s.\n",
                fleet.threads, fleet.wall_ms, fleet.netlists_per_s(),
                fleet.sweeps_per_s());

    if (!json_path.empty()) {
        report::json root = report::json::object();
        root.set("schema_version",
                 report::json::number(report::k_bench_schema_version));
        root.set("bench", report::json::str("itc99"));
        root.set("vectors", report::json::number(vectors));
        root.set("seed", report::json::number(static_cast<std::int64_t>(seed)));
        root.set("rows", std::move(json_rows));
        report::json averages = report::json::object();
        averages.set("delay_decrease_pct", report::json::number(speedup_sum / counted));
        averages.set("area_increase_pct", report::json::number(area_sum / counted));
        root.set("suite_averages", std::move(averages));
        // The per-row data already lives in "rows" above; embed the summary.
        root.set("fleet", runner::to_json(fleet, /*include_rows=*/false));
        try {
            atomic_write_text(json_path, root.dump());
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bench_table3_itc99: %s\n", e.what());
            return 1;
        }
    }
    return 0;
}
