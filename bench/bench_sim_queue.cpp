// bench_sim_queue — throughput of pl_simulator's evaluator on its two
// protocols.
//
// The measure phase is the dominant per-circuit cost of a fleet job, so this
// bench times the simulator alone: a fleet mix of generated circuits (all
// six scenario presets round-robin) is mapped, EE-transformed, and then
// simulated repeatedly with identical stimulus.  pl_simulator compiles each
// netlist into a static wave schedule in its constructor; every timed pass
// constructs its simulator (and so compiles) outside the clock, the same
// cut measure_average_delay uses for sim_wall_ms.
//
// Reported per scenario and for the whole mix: events/s of the
// sequential-wave protocol (run / run_packed), counting the events of both
// time planes, as the fleet's sim_events_per_s does.  The mix row can fan
// circuits across worker threads (--threads) to mirror how the fleet runner
// drives shards.  tests/test_sim_queue.cpp checks the evaluator against a
// time-ordered reference.
//
// The `lanes` row measures the lane protocol (one run_lanes call over a
// circuit's blocks) on the same mix.  Before timing, run_lanes is
// cross-checked against 64 serial per-vector runs on every circuit
// (bit-identical outputs, times, delays and EE counters, non-zero exit on
// mismatch).  Then an interleaved A/B times the
// synchronous measure path — the lanes=1 golden loop (set/eval/read/latch
// per vector) against the 64-lane word-parallel loop — plus the PL serial
// runs against run_lanes, reporting vectors/s each way and the divergent
// share (the lane deposits that carried a per-lane time slab).
//
//   --circuits N       netlists in the mix                   (default 12)
//   --gates G          LUTs per netlist                      (default 150)
//   --vectors V        random vectors per run                (default 60)
//   --lane-vectors LV  vectors for the sync lanes A/B        (default 8192)
//   --seed S           generator + stimulus seed             (default 1)
//   --repeat R         timed repetitions per protocol        (default 3)
//   --threads T        worker threads for the fleet-mix row  (default 1;
//                      0 = one per hardware thread)
//   --json PATH        write BENCH_sim.json for cross-PR perf tracking

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
    nl::netlist sync;  ///< the synchronous source, for the golden-path A/B
    pl::pl_netlist pl;
    std::vector<std::vector<bool>> vectors;
    std::vector<sim::stimulus_block> blocks;  ///< same stimulus, lane-packed
};

/// Wall ms of the simulation runs themselves for every circuit in `group`,
/// fanned over worker_count(threads, group) workers pulling from a shared
/// counter, as the fleet runner does.  Simulator construction (the schedule
/// compile) happens outside the clock — this is the same cut
/// measure_both_arms uses for sim_wall_ms — and the events are both
/// planes' (stats() and plain_stats()), so events/s here and the fleet's
/// sim_events_per_s measure the same thing.
double timed_pass(const std::vector<const circuit*>& group, unsigned threads,
                  std::uint64_t* events_out) {
    std::atomic<std::size_t> next{0};
    std::atomic<std::uint64_t> events{0};
    std::atomic<std::int64_t> wall_ns{0};
    run_workers(worker_count(threads, group.size()), [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= group.size()) return;
            const circuit& c = *group[i];
            sim::pl_simulator simulator(c.pl);
            const wall_timer timer;
            simulator.run(c.vectors);
            events.fetch_add(simulator.stats().events +
                             simulator.plain_stats().events);
            wall_ns.fetch_add(
                static_cast<std::int64_t>(std::llround(timer.elapsed_ms() * 1e6)));
        }
    });
    *events_out = events.load();
    // Summed per-run wall time: with T workers this is T x the elapsed time,
    // so events / wall stays per-core throughput at any thread count.
    return static_cast<double>(wall_ns.load()) * 1e-6;
}

/// Best-of-R events/s over a circuit group.
double best_events_per_s(const std::vector<const circuit*>& group,
                         unsigned threads, unsigned repeat,
                         std::uint64_t* events_out) {
    double best = 0.0;
    for (unsigned r = 0; r < repeat; ++r) {
        std::uint64_t events = 0;
        const double ms = timed_pass(group, threads, &events);
        if (ms > 0.0) best = std::max(best, 1000.0 * static_cast<double>(events) / ms);
        *events_out = events;
    }
    return best;
}

// --- Lane-parallel section ----------------------------------------------

struct lane_check {
    bool ok = true;
    std::uint64_t events = 0;
    std::uint64_t lane_splits = 0;
    std::uint64_t lane_slab_deposits = 0;

    /// The lane deposits that carried a per-lane time slab, per event.
    double divergent_share() const {
        return events == 0 ? 0.0
                           : static_cast<double>(lane_slab_deposits) /
                                 static_cast<double>(events);
    }
};

/// Lane protocol golden gate: run_lanes over the blocks of `c` must match 64
/// serial single-vector runs per block bit for bit — sink values,
/// per-vector stable times and delays — and the summed EE counters must be
/// equal.
lane_check check_lanes_vs_serial(const circuit& c) {
    sim::pl_simulator lane_sim(c.pl);
    sim::pl_simulator ref(c.pl);
    const std::vector<sim::lane_block_result> results = lane_sim.run_lanes(c.blocks);
    const sim::sim_run_stats& ls = lane_sim.stats();
    lane_check out;
    out.events = ls.events;
    out.lane_splits = ls.lane_splits;
    out.lane_slab_deposits = ls.lane_slab_deposits;
    sim::sim_run_stats ref_total{};
    std::vector<std::vector<bool>> one(1);
    for (std::size_t b = 0; b < c.blocks.size(); ++b) {
        const sim::stimulus_block& block = c.blocks[b];
        const sim::lane_block_result& lr = results[b];
        for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
            block.extract(lane, one[0]);
            const std::vector<sim::wave_record> waves = ref.run(one);
            const sim::sim_run_stats& rs = ref.stats();
            ref_total.ee_hits += rs.ee_hits;
            ref_total.ee_misses += rs.ee_misses;
            ref_total.ee_wins += rs.ee_wins;
            const sim::wave_record& w = waves.front();
            if (w.input_stable != lr.input_stable[lane] ||
                w.output_stable != lr.output_stable[lane] ||
                w.delay() != lr.output_stable[lane]) {
                out.ok = false;
                return out;
            }
            for (std::size_t j = 0; j < w.outputs.size(); ++j) {
                if (w.outputs[j] != (((lr.outputs[j] >> lane) & 1u) != 0)) {
                    out.ok = false;
                    return out;
                }
            }
        }
    }
    out.ok = ls.ee_hits == ref_total.ee_hits && ls.ee_misses == ref_total.ee_misses &&
             ls.ee_wins == ref_total.ee_wins;
    return out;
}

/// One timed pass of the lanes=1 golden loop (set/eval/read/latch per
/// vector, measure's golden run at lanes 1) over a circuit's stimulus.
double sync_scalar_pass(const circuit& c,
                        const std::vector<std::vector<bool>>& vecs,
                        std::size_t* sink) {
    nl::sync_simulator gold(c.sync);
    const std::vector<bool> expected(c.sync.outputs().size(), false);
    const wall_timer timer;
    for (const std::vector<bool>& v : vecs) {
        gold.set_inputs(v);
        gold.eval();
        *sink += gold.outputs_equal(expected) ? 1u : 0u;
        gold.latch();
    }
    return timer.elapsed_ms();
}

/// One timed pass of the lanes=64 golden loop (reset/set/eval/read per
/// block, measure's golden run at lanes 64) over the same stimulus, packed.
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

/// One timed pass of the sequential-wave protocol, one single-vector run
/// per vector (the serial reference the lane protocol is checked against).
double pl_serial_pass(const circuit& c) {
    sim::pl_simulator simulator(c.pl, sim::sim_options{});
    std::vector<std::vector<bool>> one(1);
    const wall_timer timer;
    for (const std::vector<bool>& v : c.vectors) {
        one[0] = v;
        simulator.run(one);
    }
    return timer.elapsed_ms();
}

/// One timed pass of the lane protocol, one run_lanes call over every block.
double pl_lane_pass(const circuit& c) {
    sim::pl_simulator simulator(c.pl);
    const wall_timer timer;
    simulator.run_lanes(c.blocks);
    return timer.elapsed_ms();
}

}  // namespace

int main(int argc, char** argv) {
    std::size_t circuits = 12;
    std::size_t gates = 150;
    std::size_t vectors = 60;
    std::size_t lane_vectors = 8192;
    std::uint64_t seed = 1;
    unsigned repeat = 3;
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
                circuits = parse_unsigned<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--gates") == 0) {
                gates = parse_unsigned<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--vectors") == 0) {
                vectors = parse_positive<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--lane-vectors") == 0) {
                lane_vectors = parse_positive<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--seed") == 0) {
                seed = parse_unsigned<std::uint64_t>(arg, v);
            } else if (std::strcmp(arg, "--repeat") == 0) {
                repeat = parse_unsigned<unsigned>(arg, v);
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
        // Fleet mix: the four presets round-robin, EE applied, shared stimulus
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
            c.vectors = sim::random_vectors(vectors, c.pl.sources().size(),
                                            seed ^ (i * 0x9e3779b97f4a7c15ull));
            mix.push_back(std::move(c));
        }

        std::map<std::string, std::vector<const circuit*>> by_scenario;
        std::vector<const circuit*> all;
        for (const circuit& c : mix) {
            by_scenario[c.scenario].push_back(&c);
            all.push_back(&c);
        }

        report::text_table t({"Workload", "Sequential-wave ev/s"});
        report::json rows = report::json::array();
        const auto add_row = [&](const std::string& name,
                                 const std::vector<const circuit*>& group,
                                 unsigned row_threads) {
            std::uint64_t events = 0;
            const double rate =
                best_events_per_s(group, row_threads, repeat, &events);
            t.add_row({name, report::fmt(rate, 0)});
            report::json j = report::json::object();
            j.set("workload", report::json::str(name));
            j.set("threads",
                  report::json::number(static_cast<std::int64_t>(row_threads)));
            j.set("events_per_run",
                  report::json::number(static_cast<std::int64_t>(events)));
            j.set("events_per_s", report::json::number(rate));
            rows.push(std::move(j));
        };

        for (const auto& [name, group] : by_scenario) {
            add_row(name, group, /*row_threads=*/1);
        }
        add_row("fleet-mix", all, threads);
        std::printf("%zu circuits x %zu gates, %zu vectors, best of %u "
                    "(fleet-mix at %u threads)\n\n%s\n",
                    circuits, gates, vectors, repeat, threads,
                    t.to_string().c_str());

        // --- Lanes row: 64-vector word-parallel mode on the same mix -----

        // Golden gate: run_lanes vs 64 serial per-vector runs, bit for bit.
        lane_check lanes{};
        for (const circuit& c : mix) {
            const lane_check lc = check_lanes_vs_serial(c);
            if (!lc.ok) {
                std::fprintf(stderr,
                             "FAIL: lane protocol diverges from serial runs on "
                             "%s (gates=%zu seed=%llu)\n",
                             c.scenario.c_str(), gates,
                             static_cast<unsigned long long>(seed));
                return 1;
            }
            lanes.events += lc.events;
            lanes.lane_splits += lc.lane_splits;
            lanes.lane_slab_deposits += lc.lane_slab_deposits;
        }
        std::printf("cross-check: lane protocol bit-identical to serial runs on "
                    "%zu circuits (%llu divergent EE firings, divergent share "
                    "%.4f)\n",
                    mix.size(),
                    static_cast<unsigned long long>(lanes.lane_splits),
                    lanes.divergent_share());

        // Interleaved A/B: within every repetition each circuit runs the
        // scalar pass immediately followed by the lane pass, so frequency
        // drift hits both sides alike; best-of-R on the summed ms.
        double sync_scalar_ms = 1e300;
        double sync_lane_ms = 1e300;
        double pl_serial_ms = 1e300;
        double pl_lane_ms = 1e300;
        std::size_t scalar_sink = 0;
        std::uint64_t lane_sink = 0;
        std::vector<std::vector<std::vector<bool>>> sync_vecs;
        std::vector<std::vector<sim::stimulus_block>> sync_blocks;
        for (std::size_t i = 0; i < mix.size(); ++i) {
            const std::uint64_t s = seed ^ ((i + circuits) * 0x9e3779b97f4a7c15ull);
            sync_vecs.push_back(sim::random_vectors(
                lane_vectors, mix[i].pl.sources().size(), s));
            sync_blocks.push_back(sim::make_stimulus(
                lane_vectors, mix[i].pl.sources().size(), s));
        }
        for (unsigned r = 0; r < repeat; ++r) {
            double sc = 0.0, sl = 0.0, es = 0.0, el = 0.0;
            for (std::size_t i = 0; i < mix.size(); ++i) {
                sc += sync_scalar_pass(mix[i], sync_vecs[i], &scalar_sink);
                sl += sync_lane_pass(mix[i], sync_blocks[i], &lane_sink);
                es += pl_serial_pass(mix[i]);
                el += pl_lane_pass(mix[i]);
            }
            sync_scalar_ms = std::min(sync_scalar_ms, sc);
            sync_lane_ms = std::min(sync_lane_ms, sl);
            pl_serial_ms = std::min(pl_serial_ms, es);
            pl_lane_ms = std::min(pl_lane_ms, el);
        }
        // Keep the per-vector output reads observable so the timed passes
        // cannot be optimized away.
        if (scalar_sink == static_cast<std::size_t>(-1) && lane_sink == 1) {
            std::printf("\n");
        }
        const double total_sync_vectors =
            static_cast<double>(lane_vectors * mix.size());
        const double total_pl_vectors =
            static_cast<double>(vectors * mix.size());
        const auto vps = [](double count, double ms) {
            return ms > 0.0 ? 1000.0 * count / ms : 0.0;
        };
        const double sync_scalar_vps = vps(total_sync_vectors, sync_scalar_ms);
        const double sync_lane_vps = vps(total_sync_vectors, sync_lane_ms);
        const double pl_serial_vps = vps(total_pl_vectors, pl_serial_ms);
        const double pl_lane_vps = vps(total_pl_vectors, pl_lane_ms);
        const double sync_speedup =
            sync_scalar_vps > 0.0 ? sync_lane_vps / sync_scalar_vps : 0.0;
        const double pl_speedup =
            pl_serial_vps > 0.0 ? pl_lane_vps / pl_serial_vps : 0.0;
        std::printf("\nlanes row (%zu lanes, %zu vectors/circuit on the sync "
                    "path, best of %u):\n",
                    sim::k_lanes, lane_vectors, repeat);
        std::printf("  sync golden path: scalar %.0f vec/s, lane %.0f vec/s "
                    "= %.1fx\n",
                    sync_scalar_vps, sync_lane_vps, sync_speedup);
        std::printf("  pl protocols    : serial %.0f vec/s, lane %.0f vec/s "
                    "= %.1fx\n\n",
                    pl_serial_vps, pl_lane_vps, pl_speedup);
        {
            report::json j = report::json::object();
            j.set("workload", report::json::str("lanes"));
            j.set("lanes", report::json::number(
                               static_cast<std::int64_t>(sim::k_lanes)));
            j.set("lane_vectors", report::json::number(
                                      static_cast<std::int64_t>(lane_vectors)));
            j.set("sync_scalar_vectors_per_s",
                  report::json::number(sync_scalar_vps));
            j.set("sync_lane_vectors_per_s",
                  report::json::number(sync_lane_vps));
            j.set("sync_speedup", report::json::number(sync_speedup));
            j.set("pl_serial_vectors_per_s",
                  report::json::number(pl_serial_vps));
            j.set("pl_lane_vectors_per_s", report::json::number(pl_lane_vps));
            j.set("pl_speedup", report::json::number(pl_speedup));
            j.set("lane_splits",
                  report::json::number(
                      static_cast<std::int64_t>(lanes.lane_splits)));
            j.set("divergent_share",
                  report::json::number(lanes.divergent_share()));
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
