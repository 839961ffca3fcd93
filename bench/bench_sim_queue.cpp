// bench_sim_queue — throughput of pl_simulator's evaluator on its two
// protocols.
//
// The measure phase is the dominant per-circuit cost of a fleet job, so this
// bench times the simulator alone, the way a measurement runs it: a fleet
// mix of generated circuits (the six scenario presets round-robin) is
// mapped and EE-transformed and its stimulus drawn into blocks, once.  A
// timed pass builds (compiles) each circuit's simulator outside the clock
// and times one run_packed (lanes 1, the sequential-wave protocol) or one
// run_lanes (lanes 64) call over the circuit's blocks: the cut
// measure_both_arms uses for sim_wall_ms.
//
// Rows: each scenario and the whole mix, once per protocol, in events/s
// counting both time planes' events (stats() plus plain_stats()), as the
// fleet's sim_events_per_s does.  The mix rows fan circuits across worker
// threads (--threads), as the fleet runner drives shards.  Lane rows add
// the lane engine's divergent EE firings and slab deposits, and
// divergent_share = slab deposits / events, the fleet's ratio.  The
// protocols' correctness is checked in tests (test_sim_queue,
// test_lane_sim, test_sim_differential), not here.
//
// The golden row is an interleaved A/B of the synchronous golden model as a
// measurement runs it: the lanes=1 loop (per vector: extract, set, eval,
// read each output, latch) against the 64-lane loop (per block: reset, set,
// eval, read), in vectors/s.  Last, one measurement per circuit gives both
// arms' completion-time distributions.
//
// The run is R rounds, each timing one pass of every engine row and one of
// the golden A/B, and every row reports its best: its R passes are spread
// over the whole run, so a host stall of a few hundred ms costs it a few
// passes, not its result.
//
//   --circuits N       netlists in the mix                   (default 12)
//   --gates G          LUTs per netlist                      (default 150)
//   --vectors V        random vectors per run                (default 60)
//   --lane-vectors LV  vectors for the golden A/B            (default 8192)
//   --seed S           generator + stimulus seed             (default 1)
//   --repeat R         timed repetitions per row             (default 50;
//                      five back-to-back runs then agree within ~10%
//                      on the fleet-mix rows of a shared host)
//   --threads T        worker threads for the fleet-mix rows (default 1;
//                      0 = one per hardware thread)
//   --json PATH        write BENCH_sim.json for cross-PR perf tracking
//
// N, V, LV and R must be > 0; a bad value exits 2 naming the flag.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "ee/ee_transform.hpp"
#include "netlist/sync_sim.hpp"
#include "obs/histogram.hpp"
#include "obs/sink.hpp"
#include "plogic/pl_mapper.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "rt/atomic_write.hpp"
#include "rt/parse.hpp"
#include "rt/wall_timer.hpp"
#include "rt/workers.hpp"
#include "sim/measure.hpp"
#include "sim/pl_sim.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

using namespace plee;

namespace {

struct circuit {
    std::string scenario;
    nl::netlist sync;  ///< the synchronous source: the golden model
    pl::pl_netlist pl;
    std::vector<sim::stimulus_block> blocks;
};

/// What one timed pass over a circuit group ran and simulated.
struct pass_result {
    double ms = 0.0;            ///< summed per-run wall time
    std::uint64_t events = 0;   ///< both planes'
    std::uint64_t lane_splits = 0;
    std::uint64_t lane_slab_deposits = 0;
};

/// One timed pass of every circuit in `group` under the `lanes` protocol
/// (1 or 64), fanned over worker_count(threads, group) workers pulling
/// from a shared counter, as the fleet runner does.  Each simulator is
/// built outside the clock, and its run takes all the circuit's blocks.
pass_result timed_pass(const std::vector<const circuit*>& group, unsigned threads,
                       std::size_t lanes) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::uint64_t> lane_splits{0};
    std::atomic<std::uint64_t> lane_slab_deposits{0};
    std::atomic<std::int64_t> wall_ns{0};
    run_workers(worker_count(threads, group.size()), [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= group.size()) return;
            const circuit& c = *group[i];
            sim::pl_simulator simulator(c.pl);
            const wall_timer timer;
            if (lanes == 1) {
                simulator.run_packed(c.blocks);
            } else {
                simulator.run_lanes(c.blocks);
            }
            wall_ns.fetch_add(
                static_cast<std::int64_t>(std::llround(timer.elapsed_ms() * 1e6)));
            const sim::sim_run_stats& s = simulator.stats();
            events.fetch_add(s.events + simulator.plain_stats().events);
            lane_splits.fetch_add(s.lane_splits);
            lane_slab_deposits.fetch_add(s.lane_slab_deposits);
        }
    });
    // Summed per-run wall time: with T workers this is T x the elapsed time,
    // so events / wall stays per-core throughput at any thread count.
    return {static_cast<double>(wall_ns.load()) * 1e-6, events.load(),
            lane_splits.load(), lane_slab_deposits.load()};
}

/// One timed pass of the lanes=1 golden loop over a circuit's stimulus,
/// read as measure's golden run reads it: per vector, extract its lane,
/// set, eval, read each output, latch.
double sync_scalar_pass(const circuit& c,
                        const std::vector<sim::stimulus_block>& blocks,
                        std::uint64_t* sink) {
    nl::sync_simulator gold(c.sync);
    const std::vector<nl::cell_id>& outputs = c.sync.outputs();
    std::vector<bool> inputs;
    const wall_timer timer;
    for (const sim::stimulus_block& b : blocks) {
        for (std::size_t lane = 0; lane < b.num_vectors; ++lane) {
            b.extract(lane, inputs);
            gold.set_inputs(inputs);
            gold.eval();
            for (const nl::cell_id o : outputs) {
                *sink ^= std::uint64_t{gold.value_of(o)} << lane;
            }
            gold.latch();
        }
    }
    return timer.elapsed_ms();
}

/// One timed pass of the lanes=64 golden loop (reset/set/eval/read per
/// block, measure's golden run at lanes 64) over the same stimulus.
double sync_lane_pass(const circuit& c,
                      const std::vector<sim::stimulus_block>& blocks,
                      std::uint64_t* sink) {
    nl::sync_lane_simulator gold(c.sync);
    std::vector<std::uint64_t> out(c.sync.outputs().size());
    const wall_timer timer;
    for (const sim::stimulus_block& b : blocks) {
        gold.reset();
        gold.set_inputs(b.words.data(), b.width);
        gold.eval();
        gold.output_values(out.data());
        for (const std::uint64_t w : out) *sink ^= w;
    }
    return timer.elapsed_ms();
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t circuits = 12;
    std::size_t gates = 150;
    std::size_t vectors = 60;
    std::size_t lane_vectors = 8192;
    std::uint64_t seed = 1;
    unsigned repeat = 50;
    unsigned threads = 1;
    std::string json_path;
    const auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--circuits N] [--gates G] [--vectors V] "
                     "[--lane-vectors LV] [--seed S] [--repeat R] "
                     "[--threads T] [--json PATH]\n",
                     argv[0]);
        return 2;
    };
    try {
        if (argc % 2 == 0) return usage();  // every option takes a value
        for (int i = 1; i < argc; i += 2) {
            const char* arg = argv[i];
            const char* v = argv[i + 1];
            if (std::strcmp(arg, "--circuits") == 0) {
                circuits = parse_positive<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--gates") == 0) {
                gates = parse_unsigned<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--vectors") == 0) {
                vectors = parse_positive<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--lane-vectors") == 0) {
                lane_vectors = parse_positive<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--seed") == 0) {
                seed = parse_unsigned<std::uint64_t>(arg, v);
            } else if (std::strcmp(arg, "--repeat") == 0) {
                repeat = parse_positive<unsigned>(arg, v);
            } else if (std::strcmp(arg, "--threads") == 0) {
                threads = parse_unsigned<unsigned>(arg, v);
            } else if (std::strcmp(arg, "--json") == 0) {
                json_path = v;
            } else {
                return usage();
            }
        }
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bench_sim_queue: %s\n", e.what());
        return usage();
    }
    threads = worker_count(threads, circuits);

    try {
        // Fleet mix: the presets round-robin, EE applied, shared stimulus
        // seed — the same shape the fleet runner simulates per shard.
        std::vector<circuit> mix;
        for (std::size_t i = 0; i < circuits; ++i) {
            const wl::scenario kind =
                wl::all_scenarios()[i % wl::all_scenarios().size()];
            circuit c;
            c.scenario = wl::to_string(kind);
            c.sync = wl::generate(wl::scenario_params(kind, gates, seed + i));
            pl::map_result mapped = pl::map_to_phased_logic(c.sync);
            ee::apply_early_evaluation(mapped.pl);
            c.pl = std::move(mapped.pl);
            c.blocks = sim::make_stimulus(vectors, c.pl.sources().size(),
                                          seed ^ (i * 0x9e3779b97f4a7c15ull));
            mix.push_back(std::move(c));
        }

        std::map<std::string, std::vector<const circuit*>> by_scenario;
        std::vector<const circuit*> all;
        for (const circuit& c : mix) {
            by_scenario[c.scenario].push_back(&c);
            all.push_back(&c);
        }

        // Engine rows: one per scenario and protocol, and two for the whole
        // mix.  A row reports its best pass's events/s and the counts of a
        // pass (every pass simulates the same events).
        struct engine_row {
            std::string name;
            const std::vector<const circuit*>* group = nullptr;
            unsigned threads = 1;
            std::size_t lanes = 1;
            double rate = 0.0;
            pass_result pass;
        };
        std::vector<engine_row> engine;
        for (const auto& [name, group] : by_scenario) {
            for (const std::size_t lanes : {std::size_t{1}, sim::k_lanes}) {
                engine.push_back({name, &group, 1, lanes, 0.0, {}});
            }
        }
        for (const std::size_t lanes : {std::size_t{1}, sim::k_lanes}) {
            engine.push_back({"fleet-mix", &all, threads, lanes, 0.0, {}});
        }
        // The golden row's stimulus: its own vectors per circuit.
        std::vector<std::vector<sim::stimulus_block>> golden_blocks;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            golden_blocks.push_back(sim::make_stimulus(
                lane_vectors, mix[i].pl.sources().size(),
                seed ^ ((i + circuits) * 0x9e3779b97f4a7c15ull)));
        }
        // R rounds, each one timed pass of every engine row and one of the
        // golden A/B, so each row's passes are spread over the whole run: a
        // stall of a shared host costs a row a few of them, not all.
        double scalar_ms = 1e300;
        double lane_ms = 1e300;
        std::uint64_t sink = 0;
        for (unsigned r = 0; r < repeat; ++r) {
            for (engine_row& e : engine) {
                e.pass = timed_pass(*e.group, e.threads, e.lanes);
                if (e.pass.ms > 0.0) {
                    e.rate = std::max(
                        e.rate, 1000.0 * static_cast<double>(e.pass.events) / e.pass.ms);
                }
            }
            // Interleaved A/B: each circuit runs the golden scalar pass
            // immediately followed by the lane pass, so frequency drift hits
            // both sides alike; best-of-R on the summed ms.
            double sc = 0.0;
            double sl = 0.0;
            for (std::size_t i = 0; i < mix.size(); ++i) {
                sc += sync_scalar_pass(mix[i], golden_blocks[i], &sink);
                sl += sync_lane_pass(mix[i], golden_blocks[i], &sink);
            }
            scalar_ms = std::min(scalar_ms, sc);
            lane_ms = std::min(lane_ms, sl);
        }

        report::text_table t({"Workload", "Sequential-wave ev/s", "Lane ev/s",
                              "Divergent share"});
        report::json rows = report::json::array();
        std::vector<std::string> cells;
        for (const engine_row& e : engine) {
            if (e.lanes == 1) cells = {e.name};
            cells.push_back(report::fmt(e.rate, 0));
            report::json j = report::json::object();
            j.set("workload", report::json::str(e.name));
            j.set("lanes", report::json::number(static_cast<std::int64_t>(e.lanes)));
            j.set("threads", report::json::number(static_cast<std::int64_t>(e.threads)));
            j.set("events_per_run",
                  report::json::number(static_cast<std::int64_t>(e.pass.events)));
            j.set("events_per_s", report::json::number(e.rate));
            if (e.lanes == sim::k_lanes) {
                // The fleet's divergent_share: the deposits that carried a
                // per-lane time slab, per event of both planes.
                const double share =
                    e.pass.events == 0 ? 0.0
                                       : static_cast<double>(e.pass.lane_slab_deposits) /
                                             static_cast<double>(e.pass.events);
                cells.push_back(report::fmt(share, 4));
                j.set("lane_splits", report::json::number(
                                         static_cast<std::int64_t>(e.pass.lane_splits)));
                j.set("lane_slab_deposits",
                      report::json::number(
                          static_cast<std::int64_t>(e.pass.lane_slab_deposits)));
                j.set("divergent_share", report::json::number(share));
                t.add_row(cells);
            }
            rows.push(std::move(j));
        }
        std::printf("%zu circuits x %zu gates, %zu vectors, best of %u "
                    "(fleet-mix at %u threads)\n\n%s\n",
                    circuits, gates, vectors, repeat, threads,
                    t.to_string().c_str());

        // --- Golden row: the synchronous golden model, scalar vs 64 lanes --
        // Keep the output reads observable so the timed passes cannot be
        // optimized away.
        if (sink == 1) std::printf("\n");
        const auto vps = [&](double ms) {
            return ms > 0.0
                       ? 1000.0 * static_cast<double>(lane_vectors * mix.size()) / ms
                       : 0.0;
        };
        const double scalar_vps = vps(scalar_ms);
        const double lane_vps = vps(lane_ms);
        const double sync_speedup = scalar_vps > 0.0 ? lane_vps / scalar_vps : 0.0;
        std::printf("golden model (%zu vectors/circuit, best of %u): scalar %.0f "
                    "vec/s, %zu lanes %.0f vec/s = %.1fx\n\n",
                    lane_vectors, repeat, scalar_vps, sim::k_lanes, lane_vps,
                    sync_speedup);
        {
            report::json j = report::json::object();
            j.set("workload", report::json::str("golden"));
            j.set("lane_vectors", report::json::number(
                                      static_cast<std::int64_t>(lane_vectors)));
            j.set("sync_scalar_vectors_per_s", report::json::number(scalar_vps));
            j.set("sync_lane_vectors_per_s", report::json::number(lane_vps));
            j.set("sync_speedup", report::json::number(sync_speedup));
            rows.push(std::move(j));
        }

        // --- Completion-time distributions: plain PL vs EE ----------------
        // The paper's comparison is distributional — EE shifts the shape of
        // the per-vector completion-time distribution, not just its mean.
        // One measurement of each EE-applied netlist above gives both arms
        // (its plain time plane is the mapping without the triggers); merge
        // the per-vector histograms fleet-wide.  Recorded in integer ps,
        // printed and emitted in ns.
        obs::hist_snapshot delay_plain;
        obs::hist_snapshot delay_ee;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            sim::measure_options mopts;
            mopts.num_vectors = vectors;
            mopts.seed = seed ^ (i * 0x9e3779b97f4a7c15ull);
            const sim::measure_arms arms =
                sim::measure_both_arms(mix[i].pl, &mix[i].sync, mopts);
            delay_plain.merge(arms.plain.delay_hist);
            delay_ee.merge(arms.ee.delay_hist);
        }
        const auto pctl = [](const obs::hist_snapshot& h, double p) {
            return static_cast<double>(h.value_at_percentile(p)) / 1e3;
        };
        std::printf("completion time p50/p90/p99/max (ns): plain "
                    "%.1f/%.1f/%.1f/%.1f -> ee %.1f/%.1f/%.1f/%.1f\n",
                    pctl(delay_plain, 50.0), pctl(delay_plain, 90.0),
                    pctl(delay_plain, 99.0),
                    static_cast<double>(delay_plain.max) / 1e3,
                    pctl(delay_ee, 50.0), pctl(delay_ee, 90.0),
                    pctl(delay_ee, 99.0),
                    static_cast<double>(delay_ee.max) / 1e3);

        if (!json_path.empty()) {
            report::json doc = report::json::object();
            doc.set("schema_version",
                    report::json::number(report::k_bench_schema_version));
            doc.set("benchmark", report::json::str("bench_sim_queue"));
            doc.set("circuits", report::json::number(circuits));
            doc.set("gates", report::json::number(gates));
            doc.set("vectors", report::json::number(vectors));
            doc.set("seed",
                    report::json::number(static_cast<std::int64_t>(seed)));
            doc.set("repeat", report::json::number(static_cast<std::int64_t>(repeat)));
            doc.set("rows", std::move(rows));
            doc.set("lanes", report::json::number(
                                 static_cast<std::int64_t>(sim::k_lanes)));
            doc.set("sync_lane_speedup", report::json::number(sync_speedup));
            // Full bucket dumps so cross-PR tooling can diff the whole
            // distributions, not just the summary quantiles.
            doc.set("delay_hist_no_ee_ns",
                    obs::hist_to_json(delay_plain, 1e3, /*with_buckets=*/true));
            doc.set("delay_hist_ee_ns",
                    obs::hist_to_json(delay_ee, 1e3, /*with_buckets=*/true));
            atomic_write_text(json_path, doc.dump());
            std::printf("wrote %s\n", json_path.c_str());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
