// Differential harness for the simulator: seeded random configurations of
// the workload generator's knobs (scenario preset, size, arity weights,
// latch fraction, depth, locality), each mapped plain and with EE under a
// drawn trigger search (method and cost threshold), run under five delay
// models (default, tie, spread, zero and one seeded random model) in both
// environment modes.  On every netlist, plain and EE, verify() (the memo
// the mapper set and the EE pass kept) must equal the full
// verify_marked_graph field for field; every EE netlist must pass the
// schedule's proof of its pairs; and three independent references must
// agree with pl_simulator:
//
//  (a) the synchronous golden model (nl::sync_simulator and
//      nl::sync_lane_simulator) on every output of every vector;
//  (b) the time-ordered heap oracle (heap_oracle.hpp) on run()'s waves,
//      every stat and the trace;
//  (c) for run_lanes, a heap-oracle run of each lane's vector alone: sink
//      values, stable times, per-lane delay and the summed EE counters, on
//      every block of one run (1 to 192 vectors, so up to three blocks,
//      the last one partly filled);
//  (d) the plain time plane of the EE netlist, on both protocols, against
//      a run of the mapping without the triggers: outputs, every time and
//      every counter (plain_plane.hpp), on every block of the lane run.
//      On the mapping itself the two planes agree.
//
// A failure prints the configuration's seed and every drawn parameter.

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bool/splitmix64.hpp"
#include "ee/ee_transform.hpp"
#include "heap_oracle.hpp"
#include "netlist/sync_sim.hpp"
#include "plain_plane.hpp"
#include "plogic/pl_mapper.hpp"
#include "sim/measure.hpp"
#include "sim/pl_sim.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

namespace plee::sim {
namespace {

constexpr int k_configs = 24;
constexpr std::size_t k_waves = 10;

/// A deterministic draw stream (splitmix64 over a counter).
struct draws {
    std::uint64_t state;
    std::uint64_t next() { return bf::splitmix64(state++); }
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
};

struct config {
    std::uint64_t seed = 0;
    wl::workload_params params;
    delay_model random_delays;
    std::size_t lane_vectors = 0;
    ee::search_options search;
    std::string text;  ///< the drawn parameters, for failure messages
};

config draw_config(std::uint64_t seed) {
    draws d{seed * 0x9e3779b97f4a7c15ull};
    config c;
    c.seed = seed;
    const wl::scenario kind =
        wl::all_scenarios()[d.below(wl::all_scenarios().size())];
    const std::size_t gates = 40 + d.below(111);
    c.params = wl::scenario_params(kind, gates, d.next());
    int total = 0;
    for (int a = 0; a < 8; ++a) {
        c.params.arity_weights[static_cast<std::size_t>(a)] =
            a < c.params.max_arity ? static_cast<int>(d.below(50)) : 0;
        total += c.params.arity_weights[static_cast<std::size_t>(a)];
    }
    if (total == 0) c.params.arity_weights[1] = 1;
    c.params.latch_fraction = 0.4 * d.unit();
    c.params.depth_layers = d.below(2) == 0 ? 0 : 2 + d.below(gates / 4);
    c.params.locality = d.unit();
    for (double* component :
         {&c.random_delays.d_celem, &c.random_delays.d_lut,
          &c.random_delays.d_latch, &c.random_delays.d_ee_penalty,
          &c.random_delays.d_source}) {
        *component = 2.0 * d.unit();
    }
    c.lane_vectors = 1 + d.below(3 * k_lanes);
    // The paper's thresholded trigger sets, and its cube-list triggers where
    // they are cheap: a cube-list search of a LUT7/8 netlist takes ~25x
    // the exact one.
    c.search.cost_threshold = 60.0 * static_cast<double>(d.below(3));
    if (c.params.max_arity <= 6 && d.below(2) == 0) {
        c.search.method = ee::trigger_method::cube_list;
    }

    std::ostringstream os;
    os << "config seed " << seed << ": " << wl::to_string(kind) << ", "
       << gates << " LUTs, generator seed " << c.params.seed
       << ", arity_weights {";
    for (int w : c.params.arity_weights) os << w << ' ';
    os << "}, latch_fraction " << c.params.latch_fraction << ", depth_layers "
       << c.params.depth_layers << ", locality " << c.params.locality
       << ", random delays {celem " << c.random_delays.d_celem << ", lut "
       << c.random_delays.d_lut << ", latch " << c.random_delays.d_latch
       << ", ee_penalty " << c.random_delays.d_ee_penalty << ", source "
       << c.random_delays.d_source << "}, " << c.lane_vectors
       << " lane vectors, EE search "
       << (c.search.method == ee::trigger_method::cube_list ? "cube_list" : "exact")
       << " with cost_threshold " << c.search.cost_threshold;
    c.text = os.str();
    return c;
}

std::vector<std::pair<std::string, delay_model>> delay_models(const config& c) {
    delay_model tie;
    tie.d_celem = tie.d_lut = tie.d_latch = tie.d_ee_penalty = tie.d_source = 1.0;
    delay_model spread;
    spread.d_source = 1e-4;
    spread.d_lut = 50.0;
    delay_model zero;
    zero.d_celem = zero.d_lut = zero.d_latch = zero.d_ee_penalty =
        zero.d_source = 0.0;
    return {{"default", {}},
            {"tie", tie},
            {"spread", spread},
            {"zero", zero},
            {"random", c.random_delays}};
}

/// (a) for run(): every wave's outputs against the scalar golden model.
void expect_golden_waves(const nl::netlist& sync,
                         const std::vector<std::vector<bool>>& vectors,
                         const std::vector<wave_record>& waves) {
    nl::sync_simulator gold(sync);
    ASSERT_EQ(waves.size(), vectors.size());
    for (std::size_t k = 0; k < vectors.size(); ++k) {
        gold.set_inputs(vectors[k]);
        gold.eval();
        EXPECT_EQ(gold.output_values(), waves[k].outputs) << "wave " << k;
        gold.latch();
    }
}

/// (b) oracle == evaluator: waves and every stat.
void expect_same_run(const std::vector<wave_record>& oracle_waves,
                     const sim_run_stats& oracle_stats,
                     const pl_simulator& evaluator,
                     const std::vector<wave_record>& waves) {
    ASSERT_EQ(oracle_waves.size(), waves.size());
    for (std::size_t k = 0; k < waves.size(); ++k) {
        EXPECT_EQ(oracle_waves[k].outputs, waves[k].outputs) << "wave " << k;
        EXPECT_EQ(oracle_waves[k].release_time, waves[k].release_time) << "wave " << k;
        EXPECT_EQ(oracle_waves[k].input_stable, waves[k].input_stable) << "wave " << k;
        EXPECT_EQ(oracle_waves[k].output_stable, waves[k].output_stable) << "wave " << k;
    }
    const sim_run_stats& s = evaluator.stats();
    EXPECT_EQ(oracle_stats.events, s.events);
    EXPECT_EQ(oracle_stats.firings, s.firings);
    EXPECT_EQ(oracle_stats.ee_hits, s.ee_hits);
    EXPECT_EQ(oracle_stats.ee_misses, s.ee_misses);
    EXPECT_EQ(oracle_stats.ee_wins, s.ee_wins);
}

/// (b) for the traced run: the trace, event for event.
void expect_same_trace(const std::vector<trace_event>& oracle_trace,
                       const std::vector<trace_event>& trace) {
    ASSERT_EQ(oracle_trace.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        ASSERT_EQ(oracle_trace[i].time, trace[i].time) << "trace #" << i;
        ASSERT_EQ(oracle_trace[i].edge, trace[i].edge) << "trace #" << i;
        ASSERT_EQ(oracle_trace[i].value, trace[i].value) << "trace #" << i;
    }
}

/// (c) and (a) for run_lanes: one run over every block, lane L of block b
/// against an oracle run of that vector alone, and every lane against the
/// 64-lane golden model from reset.
void expect_lanes_match_oracle(const nl::netlist& sync, const pl::pl_netlist& pl,
                               const sim_options& opts,
                               const std::vector<stimulus_block>& blocks) {
    pl_simulator lanes(pl, opts);
    const std::vector<lane_block_result> results = lanes.run_lanes(blocks);
    const sim_run_stats ls = lanes.stats();
    EXPECT_LE(ls.lane_slab_deposits, ls.events);
    ASSERT_EQ(results.size(), blocks.size());

    nl::sync_lane_simulator gold(sync);
    std::vector<std::uint64_t> expected(sync.outputs().size());
    sim_run_stats oracle_total{};
    std::vector<std::vector<bool>> one(1);
    testing::heap_oracle oracle(pl, opts);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        SCOPED_TRACE("block " + std::to_string(b));
        const stimulus_block& block = blocks[b];
        const lane_block_result& lr = results[b];
        ASSERT_EQ(lr.num_vectors, block.num_vectors);
        gold.reset();
        gold.set_inputs(block.words.data(), block.width);
        gold.eval();
        gold.output_values(expected.data());
        ASSERT_EQ(lr.outputs.size(), expected.size());
        for (std::size_t j = 0; j < expected.size(); ++j) {
            EXPECT_EQ(lr.outputs[j], expected[j] & block.lane_mask()) << "sink " << j;
        }

        for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
            block.extract(lane, one[0]);
            const std::vector<wave_record> waves = oracle.run(one);
            const wave_record& w = waves.front();
            oracle_total.ee_hits += oracle.stats().ee_hits;
            oracle_total.ee_misses += oracle.stats().ee_misses;
            oracle_total.ee_wins += oracle.stats().ee_wins;
            EXPECT_EQ(lr.input_stable[lane], w.input_stable) << "lane " << lane;
            EXPECT_EQ(lr.output_stable[lane], w.output_stable) << "lane " << lane;
            EXPECT_EQ(lr.output_stable[lane], w.delay()) << "lane " << lane;
            for (std::size_t j = 0; j < w.outputs.size(); ++j) {
                EXPECT_EQ(((lr.outputs[j] >> lane) & 1u) != 0, w.outputs[j])
                    << "lane " << lane << " sink " << j;
            }
        }
    }
    EXPECT_EQ(ls.ee_hits, oracle_total.ee_hits);
    EXPECT_EQ(ls.ee_misses, oracle_total.ee_misses);
    EXPECT_EQ(ls.ee_wins, oracle_total.ee_wins);
}

/// The netlist's verify(), a memo read after the mapper and the EE pass,
/// must equal the full analysis field for field.
void expect_verify_matches_full_analysis(const pl::pl_netlist& pl) {
    EXPECT_TRUE(pl.verified());
    const pl::mg_report memo = pl.verify();
    const pl::mg_report full = pl::verify_marked_graph(pl);
    EXPECT_EQ(memo.well_formed, full.well_formed);
    EXPECT_EQ(memo.live, full.live);
    EXPECT_EQ(memo.safe, full.safe);
    EXPECT_EQ(memo.violation, full.violation);
}

void check_netlist(const config& c, const nl::netlist& sync,
                   const pl::pl_netlist& pl, const std::string& arm) {
    SCOPED_TRACE(arm);
    expect_verify_matches_full_analysis(pl);
    const std::vector<std::vector<bool>> vectors =
        random_vectors(k_waves, pl.sources().size(), c.seed);
    const std::vector<stimulus_block> blocks =
        make_stimulus(c.lane_vectors, pl.sources().size(), ~c.seed);
    for (const auto& [name, delays] : delay_models(c)) {
        for (bool non_pipelined : {true, false}) {
            SCOPED_TRACE(name + " delays, " +
                         (non_pipelined ? "non-pipelined" : "pipelined"));
            sim_options opts;
            opts.delays = delays;
            opts.non_pipelined = non_pipelined;
            testing::heap_oracle oracle(pl, opts);
            const std::vector<wave_record> oracle_waves = oracle.run(vectors);
            pl_simulator traced(pl, opts);
            std::vector<trace_event> trace;
            const std::vector<wave_record> waves = traced.run(vectors, trace);
            expect_golden_waves(sync, vectors, waves);
            expect_same_run(oracle_waves, oracle.stats(), traced, waves);
            expect_same_trace(oracle.trace(), trace);
            // The untraced run is the one measurements take.
            pl_simulator untraced(pl, opts);
            expect_same_run(oracle_waves, oracle.stats(), untraced,
                            untraced.run(vectors));
            expect_lanes_match_oracle(sync, pl, opts, blocks);
        }
    }
}

/// (d) for both protocols, every delay model and both environment modes.
void expect_plain_plane(const config& c, const pl::pl_netlist& plain,
                        const pl::pl_netlist& ee) {
    const std::vector<std::vector<bool>> vectors =
        random_vectors(k_waves, plain.sources().size(), c.seed);
    const std::vector<stimulus_block> blocks =
        make_stimulus(c.lane_vectors, plain.sources().size(), ~c.seed);
    for (const auto& [name, delays] : delay_models(c)) {
        for (bool non_pipelined : {true, false}) {
            SCOPED_TRACE("plain plane, " + name + " delays, " +
                         (non_pipelined ? "non-pipelined" : "pipelined"));
            sim_options opts;
            opts.delays = delays;
            opts.non_pipelined = non_pipelined;
            pl_simulator want(plain, opts);
            pl_simulator got(ee, opts);
            const std::vector<wave_record> waves = want.run(vectors);
            const sim_run_stats stats = want.stats();
            testing::expect_plain_waves(waves, waves, "mapping");
            testing::expect_same_stats(stats, want.plain_stats(), "mapping");
            testing::expect_plain_waves(waves, got.run(vectors), "ee");
            testing::expect_same_stats(stats, got.plain_stats(), "ee");

            const std::vector<lane_block_result> lanes = want.run_lanes(blocks);
            const sim_run_stats lane_stats = want.stats();
            const std::vector<lane_block_result> ee_lanes = got.run_lanes(blocks);
            ASSERT_EQ(lanes.size(), blocks.size());
            ASSERT_EQ(ee_lanes.size(), blocks.size());
            for (std::size_t b = 0; b < blocks.size(); ++b) {
                const std::string at = " block " + std::to_string(b);
                testing::expect_plain_lanes(lanes[b], lanes[b], "mapping lanes" + at);
                testing::expect_plain_lanes(lanes[b], ee_lanes[b], "ee lanes" + at);
            }
            testing::expect_same_stats(lane_stats, want.plain_stats(), "mapping lanes");
            testing::expect_same_stats(lane_stats, got.plain_stats(), "ee lanes");
        }
    }
}

TEST(SimDifferential, RandomConfigurationsAgreeWithEveryReference) {
    for (int i = 1; i <= k_configs; ++i) {
        const config c = draw_config(static_cast<std::uint64_t>(i));
        SCOPED_TRACE(c.text);
        const nl::netlist sync = wl::generate(c.params);
        pl::map_result plain = pl::map_to_phased_logic(sync);
        check_netlist(c, sync, plain.pl, "plain");
        pl::map_result with_ee = pl::map_to_phased_logic(sync);
        ee::apply_early_evaluation(with_ee.pl, {.search = c.search});
        check_netlist(c, sync, with_ee.pl, "ee");
        expect_plain_plane(c, plain.pl, with_ee.pl);
        if (HasFailure()) return;  // the first failing configuration is enough
    }
}

}  // namespace
}  // namespace plee::sim
