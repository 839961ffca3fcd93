// bench_micro — google-benchmark microbenchmarks for the algorithmic
// building blocks: trigger search throughput (the 14-support-set sweep the
// paper calls "practical" thanks to the LUT4 restriction, and the LUT7 and
// LUT8 sweeps of the wide presets, each timing trigger_candidates over
// every support; and find_best_trigger over the wide-search workload's
// masters, the EE pass's own traffic), Quine–McCluskey covering,
// marked-graph verification, PL mapping, and event-simulation throughput.
//
// `--json <path>` additionally writes the captured timings as
// BENCH_trigger.json so the perf trajectory stays machine-readable.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "bool/cube_list.hpp"
#include "bool/splitmix64.hpp"
#include "ee/ee_transform.hpp"
#include "ee/trigger_search.hpp"
#include "plogic/pl_mapper.hpp"
#include "report/json.hpp"
#include "rt/atomic_write.hpp"
#include "sim/pl_sim.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

using namespace plee;

namespace {

std::uint64_t mix(std::uint64_t x) {
    return x * 6364136223846793005ull + 1442695040888963407ull;
}

void bm_trigger_search_lut4(benchmark::State& state) {
    std::uint64_t seed = 1;
    for (auto _ : state) {
        seed = mix(seed);
        const bf::truth_table master(4, seed & 0xffff);
        if (master.support_size() < 2) continue;
        benchmark::DoNotOptimize(ee::trigger_candidates(master, {0, 1, 2, 3}));
    }
}
BENCHMARK(bm_trigger_search_lut4);

void bm_trigger_search_cube_list(benchmark::State& state) {
    std::uint64_t seed = 1;
    ee::search_options opts;
    opts.method = ee::trigger_method::cube_list;
    for (auto _ : state) {
        seed = mix(seed);
        const bf::truth_table master(4, seed & 0xffff);
        if (master.support_size() < 2) continue;
        benchmark::DoNotOptimize(ee::trigger_candidates(master, {0, 1, 2, 3}, opts));
    }
}
BENCHMARK(bm_trigger_search_cube_list);

void bm_exact_trigger_kernel(benchmark::State& state) {
    // The single-support word kernel in isolation: two conjunctive folds and
    // a shrink per call.
    std::uint64_t seed = 5;
    for (auto _ : state) {
        seed = mix(seed);
        const bf::truth_table master(4, seed & 0xffff);
        benchmark::DoNotOptimize(ee::exact_trigger_function(master, 0b0111));
    }
}
BENCHMARK(bm_exact_trigger_kernel);

bf::truth_table random_wide_table(int n, std::uint64_t& seed) {
    bf::tt_words words{};
    for (int w = 0; w < bf::words_for(n); ++w) words[w] = (seed = mix(seed));
    return bf::truth_table(n, words);
}

void bm_trigger_search_lut7(benchmark::State& state) {
    // The multiword path end-to-end: 7-variable masters sweep all 63+ wide
    // support subsets through the two-word kernels.
    std::uint64_t seed = 9;
    const std::vector<int> arrivals = {0, 1, 2, 3, 4, 5, 6};
    for (auto _ : state) {
        const bf::truth_table master = random_wide_table(7, seed);
        if (master.support_size() < 2) continue;
        benchmark::DoNotOptimize(ee::trigger_candidates(master, arrivals));
    }
}
BENCHMARK(bm_trigger_search_lut7);

void bm_trigger_search_lut8(benchmark::State& state) {
    // 8-variable masters with the structure real LUT8 gates have — AND/OR
    // of literals, a threshold, a mux and a product of sums under random
    // input negations — so most supports yield a non-zero trigger, unlike
    // uniform random tables.
    const std::vector<bf::truth_table> shapes = {
        bf::truth_table::from_function(8, [](std::uint32_t m) {
            return (m & 0x07) == 0x07 || (m & 0x18) == 0x18 || (m & 0xe0) == 0xe0;
        }),
        bf::truth_table::from_function(
            8, [](std::uint32_t m) { return std::popcount(m) >= 5; }),
        bf::truth_table::from_function(8, [](std::uint32_t m) {
            switch (m >> 6) {  // x6, x7 select one of four data functions
                case 0: return (m & 0x03) == 0x03;
                case 1: return (m & 0x0c) != 0;
                case 2: return ((m >> 4) & 1u) != 0;
                default: return ((m >> 5) & 1u) != 0;
            }
        }),
        bf::truth_table::from_function(8, [](std::uint32_t m) {
            return (m & 0x03) && (m & 0x0c) && (m & 0x30) && (m & 0xc0);
        }),
    };
    std::vector<bf::truth_table> masters;
    std::uint64_t seed = 11;
    for (int i = 0; i < 64; ++i) {
        seed = mix(seed);
        masters.push_back(shapes[static_cast<std::size_t>(i) % shapes.size()]
                              .negate_inputs(static_cast<std::uint32_t>(seed >> 56)));
    }
    const std::vector<int> arrivals = {0, 1, 2, 3, 4, 5, 6, 7};
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ee::trigger_candidates(masters[i++ % masters.size()], arrivals));
    }
}
BENCHMARK(bm_trigger_search_lut8);

void bm_find_best_trigger_wide(benchmark::State& state) {
    // The traffic the EE pass serves on the wide-search workload: every
    // compute master with >= 2 pins of its seed-7 netlists (10 x 150 LUTs,
    // lut6-dag and lut8-datapath alternating, generator seed
    // splitmix64(7 * 64 + i)), with the arrival depths of its mapped
    // netlist, searched in turn by the pruned winner search.
    struct master {
        bf::truth_table function;
        std::vector<int> arrivals;
    };
    std::vector<master> masters;
    for (std::uint64_t i = 0; i < 10; ++i) {
        const wl::scenario kind =
            i % 2 == 0 ? wl::scenario::lut6_dag : wl::scenario::lut8_datapath;
        const pl::map_result mapped = pl::map_to_phased_logic(
            wl::generate(wl::scenario_params(kind, 150, bf::splitmix64(7 * 64 + i))));
        const std::vector<int> arrival = mapped.pl.arrival_depth();
        for (pl::gate_id g = 0; g < mapped.pl.num_gates(); ++g) {
            if (mapped.pl.gate(g).kind != pl::gate_kind::compute ||
                mapped.pl.data_in(g).size() < 2) {
                continue;
            }
            master m{mapped.pl.gate(g).function, {}};
            for (pl::edge_id e : mapped.pl.data_in(g)) {
                m.arrivals.push_back(arrival[mapped.pl.edge(e).from]);
            }
            masters.push_back(std::move(m));
        }
    }
    std::size_t i = 0;
    for (auto _ : state) {
        const master& m = masters[i++ % masters.size()];
        benchmark::DoNotOptimize(ee::find_best_trigger(m.function, m.arrivals));
    }
}
BENCHMARK(bm_find_best_trigger_wide);

void bm_exact_trigger_kernel_lut8(benchmark::State& state) {
    // The widest kernel: four-word folds and shrink on an 8-variable master.
    std::uint64_t seed = 10;
    for (auto _ : state) {
        const bf::truth_table master = random_wide_table(8, seed);
        benchmark::DoNotOptimize(ee::exact_trigger_function(master, 0b10100001));
    }
}
BENCHMARK(bm_exact_trigger_kernel_lut8);

void bm_apply_ee_parallel(benchmark::State& state) {
    const nl::netlist n = bench::build_benchmark("b05");
    ee::ee_options opts;
    opts.num_threads = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        pl::map_result mapped = pl::map_to_phased_logic(n);
        state.ResumeTiming();
        benchmark::DoNotOptimize(ee::apply_early_evaluation(mapped.pl, opts));
    }
}
BENCHMARK(bm_apply_ee_parallel)->Arg(1)->Arg(2)->Arg(4);

void bm_isop_cover(benchmark::State& state) {
    std::uint64_t seed = 7;
    for (auto _ : state) {
        seed = mix(seed);
        const bf::truth_table f(static_cast<int>(state.range(0)),
                                seed & ((1ull << (1 << state.range(0))) - 1));
        benchmark::DoNotOptimize(bf::isop_cover(f));
    }
}
BENCHMARK(bm_isop_cover)->Arg(4)->Arg(5);

void bm_map_to_pl(benchmark::State& state) {
    const nl::netlist n = bench::build_benchmark("b05");
    for (auto _ : state) {
        benchmark::DoNotOptimize(pl::map_to_phased_logic(n));
    }
}
BENCHMARK(bm_map_to_pl);

void bm_marked_graph_verify(benchmark::State& state) {
    const nl::netlist n = bench::build_benchmark("b05");
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    for (auto _ : state) {
        benchmark::DoNotOptimize(pl::verify_marked_graph(mapped.pl));
    }
}
BENCHMARK(bm_marked_graph_verify);

void bm_apply_ee(benchmark::State& state) {
    const nl::netlist n = bench::build_benchmark("b05");
    for (auto _ : state) {
        state.PauseTiming();
        pl::map_result mapped = pl::map_to_phased_logic(n);
        state.ResumeTiming();
        benchmark::DoNotOptimize(ee::apply_early_evaluation(mapped.pl));
    }
}
BENCHMARK(bm_apply_ee);

/// One run of 20 pre-drawn vectors, compiled outside the clock, as a
/// measurement runs it; events/s counts both time planes' events.
void bm_event_sim_b07(benchmark::State& state) {
    const nl::netlist n = bench::build_benchmark("b07");
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    const auto blocks = sim::make_stimulus(20, mapped.pl.sources().size(), 3);
    sim::pl_simulator simulator(mapped.pl);
    std::uint64_t events = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(simulator.run_packed(blocks));
        events += simulator.stats().events + simulator.plain_stats().events;
    }
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(events), benchmark::Counter::kIsRate);
}
BENCHMARK(bm_event_sim_b07);

/// The normal console reporter, additionally capturing every run so --json
/// can re-emit it through the repository's own serializer.
class json_collector : public benchmark::ConsoleReporter {
public:
    struct row {
        std::string name;
        double real_ns = 0.0;
        double cpu_ns = 0.0;
    };

    void ReportRuns(const std::vector<Run>& runs) override {
        for (const Run& r : runs) {
            rows.push_back({r.benchmark_name(), r.GetAdjustedRealTime(),
                            r.GetAdjustedCPUTime()});
        }
        ConsoleReporter::ReportRuns(runs);
    }

    std::vector<row> rows;
};

void write_json(const json_collector& collected, const std::string& path) {
    report::json benches = report::json::array();
    for (const json_collector::row& r : collected.rows) {
        report::json b = report::json::object();
        b.set("name", report::json::str(r.name));
        b.set("real_ns_per_op", report::json::number(r.real_ns));
        b.set("cpu_ns_per_op", report::json::number(r.cpu_ns));
        benches.push(std::move(b));
    }
    report::json root = report::json::object();
    root.set("schema_version",
             report::json::number(report::k_bench_schema_version));
    root.set("bench", report::json::str("trigger"));
    root.set("benchmarks", std::move(benches));
    atomic_write_text(path, root.dump());
}

}  // namespace

int main(int argc, char** argv) {
    std::string json_path;
    std::vector<char*> args;
    for (int i = 0; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json_path = argv[++i];
        } else {
            args.push_back(argv[i]);
        }
    }
    int filtered_argc = static_cast<int>(args.size());
    benchmark::Initialize(&filtered_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
        return 1;
    }

    json_collector collected;
    benchmark::RunSpecifiedBenchmarks(&collected);
    benchmark::Shutdown();

    if (!json_path.empty()) {
        try {
            write_json(collected, json_path);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "bench_micro: %s\n", e.what());
            return 1;
        }
    }
    return 0;
}
