// Tests for the 64-lane word-parallel simulation mode: the sync golden
// model's lane kernel, the PL lane engine's run_lanes (lockstep, divergent
// per-lane times, stats accounting), the lane-packed stimulus, and the
// lanes=64 measurement path.  The contract under test everywhere: lane L is
// bit-identical to a scalar/serial run of lane L's vector alone.

#include <algorithm>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "heap_oracle.hpp"
#include "netlist/sync_sim.hpp"
#include "plogic/pl_mapper.hpp"
#include "sim/errors.hpp"
#include "sim/measure.hpp"
#include "sim/pl_sim.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

namespace plee::sim {
namespace {

struct built_circuit {
    nl::netlist sync;
    pl::pl_netlist pl;
};

built_circuit build_preset(wl::scenario kind, std::size_t gates,
                           std::uint64_t seed, bool with_ee) {
    built_circuit c;
    c.sync = wl::generate(wl::scenario_params(kind, gates, seed));
    pl::map_result mapped = pl::map_to_phased_logic(c.sync);
    if (with_ee) ee::apply_early_evaluation(mapped.pl);
    c.pl = std::move(mapped.pl);
    return c;
}

built_circuit build_bench(const std::string& id, bool with_ee) {
    built_circuit c;
    c.sync = bench::build_benchmark(id);
    pl::map_result mapped = pl::map_to_phased_logic(c.sync);
    if (with_ee) ee::apply_early_evaluation(mapped.pl);
    c.pl = std::move(mapped.pl);
    return c;
}

/// The shared oracle: one run_lanes call over every block must reproduce,
/// lane for lane, a serial single-vector run — sink values, input/output
/// stable times and delay of both time planes — and the EE counters of the
/// lane run must equal the summed counters of the serial runs.
void expect_lanes_match_serial(const pl::pl_netlist& plnl, std::uint64_t seed,
                               std::size_t count, sim_options opts = {},
                               sim_run_stats* lane_out = nullptr) {
    const std::vector<stimulus_block> blocks =
        make_stimulus(count, plnl.sources().size(), seed);
    pl_simulator lane_sim(plnl, opts);
    pl_simulator ref(plnl, opts);
    const std::vector<lane_block_result> results = lane_sim.run_lanes(blocks);
    ASSERT_EQ(results.size(), blocks.size());
    const sim_run_stats& lane_total = lane_sim.stats();
    EXPECT_EQ(lane_total.lane_blocks, blocks.size());
    EXPECT_EQ(lane_total.lane_vectors, count);
    EXPECT_LE(lane_total.lane_slab_deposits, lane_total.events);
    sim_run_stats ref_total{};
    std::vector<std::vector<bool>> one(1);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const stimulus_block& block = blocks[b];
        const lane_block_result& lr = results[b];
        ASSERT_EQ(lr.num_vectors, block.num_vectors);
        for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
            block.extract(lane, one[0]);
            const std::vector<wave_record> waves = ref.run(one);
            ASSERT_EQ(waves.size(), 1u);
            const sim_run_stats& rs = ref.stats();
            ref_total.ee_hits += rs.ee_hits;
            ref_total.ee_misses += rs.ee_misses;
            ref_total.ee_wins += rs.ee_wins;
            const wave_record& w = waves.front();
            EXPECT_DOUBLE_EQ(lr.input_stable[lane], w.input_stable)
                << "lane " << lane;
            EXPECT_DOUBLE_EQ(lr.output_stable[lane], w.output_stable)
                << "lane " << lane;
            EXPECT_DOUBLE_EQ(lr.output_stable[lane], w.delay()) << "lane " << lane;
            EXPECT_EQ(lr.plain_input_stable, w.plain_input_stable) << "lane " << lane;
            EXPECT_EQ(lr.plain_output_stable, w.plain_output_stable)
                << "lane " << lane;
            EXPECT_EQ(lr.plain_output_stable, w.plain_delay()) << "lane " << lane;
            ASSERT_EQ(lr.outputs.size(), w.outputs.size());
            for (std::size_t j = 0; j < w.outputs.size(); ++j) {
                EXPECT_EQ(((lr.outputs[j] >> lane) & 1u) != 0, w.outputs[j])
                    << "lane " << lane << " sink " << j;
            }
        }
    }
    EXPECT_EQ(lane_total.ee_hits, ref_total.ee_hits);
    EXPECT_EQ(lane_total.ee_misses, ref_total.ee_misses);
    EXPECT_EQ(lane_total.ee_wins, ref_total.ee_wins);
    if (lane_out != nullptr) *lane_out = lane_total;
}

// --- Stimulus ------------------------------------------------------------

TEST(LaneStimulus, PackedBlocksMatchRandomVectors) {
    const std::size_t count = 150;  // 2 full blocks + a partial one
    const std::size_t width = 11;
    const std::uint64_t seed = 42;
    const std::vector<stimulus_block> blocks = make_stimulus(count, width, seed);
    const std::vector<std::vector<bool>> vectors =
        random_vectors(count, width, seed);
    ASSERT_EQ(blocks.size(), 3u);
    EXPECT_EQ(blocks[0].num_vectors, 64u);
    EXPECT_EQ(blocks[1].num_vectors, 64u);
    EXPECT_EQ(blocks[2].num_vectors, 22u);
    EXPECT_EQ(blocks[2].lane_mask(), (std::uint64_t{1} << 22) - 1);
    std::vector<bool> out;
    for (std::size_t v = 0; v < count; ++v) {
        const stimulus_block& b = blocks[v / k_lanes];
        for (std::size_t i = 0; i < width; ++i) {
            EXPECT_EQ(b.bit(v % k_lanes, i), vectors[v][i]);
        }
        b.extract(v % k_lanes, out);
        EXPECT_EQ(out, vectors[v]);
    }
}

TEST(LaneStimulus, DrawMatchesBernoulliDistribution) {
    // The stream std::bernoulli_distribution(0.5) gives over mt19937_64,
    // packed by hand: over seeds, widths and partial blocks.
    for (std::uint64_t seed : {0ull, 1ull, 7ull, 42ull, 0xfeedfacecafebeefull}) {
        for (std::size_t width : {1u, 3u, 25u, 100u}) {
            for (std::size_t count : {1u, 63u, 64u, 100u, 200u}) {
                std::mt19937_64 rng(seed);
                std::bernoulli_distribution bit(0.5);
                const std::vector<stimulus_block> blocks =
                    make_stimulus(count, width, seed);
                ASSERT_EQ(blocks.size(), (count + k_lanes - 1) / k_lanes);
                for (std::size_t v = 0; v < count; ++v) {
                    for (std::size_t i = 0; i < width; ++i) {
                        ASSERT_EQ(blocks[v / k_lanes].bit(v % k_lanes, i), bit(rng))
                            << "seed " << seed << " width " << width << " vector " << v;
                    }
                }
            }
        }
    }
}

TEST(LaneStimulus, DrawThresholdIsTheLibrarys) {
    // A generator that returns one fixed output pins the threshold where
    // rounding decides it: 2^63 - 513 draws 1, 2^63 - 512 and above draw 0.
    struct fixed_output {
        using result_type = std::uint64_t;
        static constexpr result_type min() { return 0; }
        static constexpr result_type max() { return ~result_type{0}; }
        result_type x;
        result_type operator()() const { return x; }
    };
    constexpr std::uint64_t half = std::uint64_t{1} << 63;
    for (std::uint64_t x : {half - 513, half - 512, half - 511, std::uint64_t{0},
                            half, ~std::uint64_t{0}}) {
        fixed_output gen{x};
        EXPECT_EQ(draw_bit(x), std::bernoulli_distribution(0.5)(gen)) << x;
    }
    EXPECT_TRUE(draw_bit(half - 513));
    EXPECT_FALSE(draw_bit(half - 512));
    EXPECT_FALSE(draw_bit(half - 511));
}

// --- Synchronous golden model -------------------------------------------

TEST(SyncLanes, MatchesScalarOverMultiCycleTrajectories) {
    // Latch-heavy preset: the DFF state words must track 64 independent
    // per-lane trajectories across clock edges, not just one eval.
    const built_circuit c =
        build_preset(wl::scenario::control_fsm, 80, 7, false);
    const std::size_t num_inputs = c.sync.inputs().size();
    const std::size_t num_outputs = c.sync.outputs().size();
    const std::size_t cycles = 8;

    std::mt19937_64 rng(99);
    std::vector<std::vector<std::uint64_t>> stimulus(cycles);
    for (auto& words : stimulus) {
        words.resize(num_inputs);
        for (std::uint64_t& w : words) w = rng();
    }

    nl::sync_lane_simulator lanes(c.sync);
    lanes.reset();
    std::vector<std::vector<std::uint64_t>> lane_outputs(cycles);
    for (std::size_t k = 0; k < cycles; ++k) {
        lanes.set_inputs(stimulus[k].data(), num_inputs);
        lanes.eval();
        lane_outputs[k].resize(num_outputs);
        lanes.output_values(lane_outputs[k].data());
        lanes.latch();
    }

    for (std::size_t lane = 0; lane < k_lanes; ++lane) {
        nl::sync_simulator scalar(c.sync);
        scalar.reset();
        std::vector<bool> inputs(num_inputs);
        for (std::size_t k = 0; k < cycles; ++k) {
            for (std::size_t i = 0; i < num_inputs; ++i) {
                inputs[i] = (stimulus[k][i] >> lane) & 1u;
            }
            scalar.set_inputs(inputs);
            scalar.eval();
            const std::vector<bool> outs = scalar.output_values();
            for (std::size_t j = 0; j < num_outputs; ++j) {
                ASSERT_EQ(((lane_outputs[k][j] >> lane) & 1u) != 0, outs[j])
                    << "cycle " << k << " lane " << lane << " output " << j;
            }
            scalar.latch();
        }
    }
}

// --- PL event engine: run_lanes vs serial --------------------------------

TEST(LaneSim, MatchesSerialAcrossWorkloadPresets) {
    for (const wl::scenario kind : wl::all_scenarios()) {
        SCOPED_TRACE(wl::to_string(kind));
        for (const bool with_ee : {false, true}) {
            SCOPED_TRACE(with_ee ? "ee" : "plain");
            const built_circuit c = build_preset(kind, 80, 5, with_ee);
            expect_lanes_match_serial(c.pl, /*seed=*/0xfeedu + with_ee,
                                      /*count=*/64);
        }
    }
}

TEST(LaneSim, MatchesSerialOnItc99) {
    for (const char* id : {"b01", "b02", "b03", "b04", "b05", "b06", "b07",
                           "b08", "b09", "b10"}) {
        SCOPED_TRACE(id);
        for (const bool with_ee : {false, true}) {
            SCOPED_TRACE(with_ee ? "ee" : "plain");
            const built_circuit c = build_bench(id, with_ee);
            expect_lanes_match_serial(c.pl, /*seed=*/0xb10cu, /*count=*/64);
        }
    }
}

TEST(LaneSim, PartialBlockAndMultiBlockCounts) {
    const built_circuit c =
        build_preset(wl::scenario::datapath_like, 60, 3, true);
    // 100 vectors = one full block + a 36-lane partial block.
    expect_lanes_match_serial(c.pl, /*seed=*/17, /*count=*/100);
}

/// Every component delay equal: maximizes simultaneous efire/normal
/// arrivals, the adversarial tie case for divergence handling.
sim_options tie_delay_options() {
    sim_options opts;
    opts.delays.d_celem = 1.0;
    opts.delays.d_lut = 1.0;
    opts.delays.d_latch = 1.0;
    opts.delays.d_ee_penalty = 1.0;
    opts.delays.d_source = 1.0;
    return opts;
}

TEST(LaneSim, DivergenceSplitsStayBitIdentical) {
    // A divergent efire word widens the emission to per-lane times; with
    // tie delays and EE applied the 64 lanes must actually exercise that
    // path, and the slab deposits are a share of the events.
    sim_options opts = tie_delay_options();
    sim_run_stats lanes{};
    const built_circuit c =
        build_preset(wl::scenario::datapath_like, 120, 11, true);
    expect_lanes_match_serial(c.pl, /*seed=*/23, /*count=*/64, opts, &lanes);
    EXPECT_GT(lanes.lane_splits, 0u);
    EXPECT_GT(lanes.lane_slab_deposits, 0u);
    EXPECT_LE(lanes.lane_slab_deposits, lanes.events);
}

// --- Environment firings: scalar and slab --------------------------------

/// y0 = a AND (b through four buffers), y1 = c through two buffers.  The EE
/// pass triggers the AND on a, so lanes with a = 0 emit y0 early: y0's sink
/// reads a slab, y1's only scalar times.  Default delays put y1 (4.1 ns)
/// between y0's early (3.1) and normal (10.6) arrivals, so the lanes' output
/// stable times need both sinks.
nl::netlist split_and_scalar_outputs() {
    nl::netlist n;
    const nl::cell_id a = n.add_input("a");
    const nl::cell_id b = n.add_input("b");
    const nl::cell_id c = n.add_input("c");
    const bf::truth_table buffer = bf::truth_table::variable(1, 0);
    nl::cell_id slow = b;
    for (int i = 0; i < 4; ++i) slow = n.add_lut(buffer, {slow});
    const nl::cell_id master = n.add_lut(
        bf::truth_table::variable(2, 0) & bf::truth_table::variable(2, 1), {a, slow}, "m");
    nl::cell_id side = c;
    for (int i = 0; i < 2; ++i) side = n.add_lut(buffer, {side});
    n.add_output("y0", master);
    n.add_output("y1", side);
    return n;
}

TEST(LaneSim, ScalarAndSlabSinksInOneBlockMatchSerial) {
    built_circuit c;
    c.sync = split_and_scalar_outputs();
    pl::map_result mapped = pl::map_to_phased_logic(c.sync);
    const ee::ee_stats stats = ee::apply_early_evaluation(mapped.pl);
    ASSERT_EQ(stats.triggers_added, 1u);
    ASSERT_EQ(stats.applied.front().candidate.support, 0b01u);
    c.pl = std::move(mapped.pl);

    sim_run_stats lanes{};
    expect_lanes_match_serial(c.pl, /*seed=*/5, /*count=*/64, {}, &lanes);
    EXPECT_GT(lanes.lane_splits, 0u);

    const std::vector<stimulus_block> blocks = make_stimulus(64, 3, 5);
    pl_simulator simulator(c.pl);
    const lane_block_result r = simulator.run_lanes(blocks).front();
    const delay_model dm;
    const double early = dm.d_source + dm.gate_delay() + dm.efire_delay();
    const double side = dm.d_source + 2 * dm.gate_delay();
    const double normal = dm.d_source + 5 * dm.gate_delay() + dm.d_ee_penalty;
    ASSERT_LT(early, side);
    // The plain plane times m as a compute gate: no penalty, no early path.
    const double plain = dm.d_source + 5 * dm.gate_delay();
    ASSERT_LT(side, plain);
    std::size_t early_lanes = 0;
    for (std::size_t lane = 0; lane < k_lanes; ++lane) {
        const bool a = blocks.front().bit(lane, 0);
        EXPECT_DOUBLE_EQ(r.output_stable[lane], a ? normal : side) << "lane " << lane;
        EXPECT_DOUBLE_EQ(r.plain_output_stable, plain) << "lane " << lane;
        early_lanes += a ? 0 : 1;
    }
    EXPECT_GT(early_lanes, 0u);
    EXPECT_LT(early_lanes, k_lanes);
}

TEST(LaneSim, SourceReadingASlabAckMatchesSerial) {
    // A source whose data edge is marked has an unmarked acknowledge in-edge,
    // so it fires after its consumer in the same wave.  Here that consumer,
    // c = m AND s', sits below an EE master m that splits the lanes, so c's
    // acknowledge carries a per-lane slab and the source's firing reads it.
    pl::pl_netlist pl;
    const pl::gate_id a = pl.add_gate(pl::gate_kind::source, "a");
    const pl::gate_id b = pl.add_gate(pl::gate_kind::source, "b");
    const pl::gate_id s = pl.add_gate(pl::gate_kind::source, "s");
    const bf::truth_table buffer = bf::truth_table::variable(1, 0);
    const bf::truth_table and2 =
        bf::truth_table::variable(2, 0) & bf::truth_table::variable(2, 1);
    const auto wire = [&pl](pl::gate_id from, pl::gate_id to, int pin, bool marked) {
        pl.add_data_edge(from, to, pin, marked, false);
        pl.add_ack_edge(to, from, !marked);
    };
    pl::gate_id slow = b;
    for (int i = 0; i < 3; ++i) {
        const pl::gate_id g = pl.add_gate(pl::gate_kind::compute);
        pl.set_function(g, buffer);
        wire(slow, g, 0, false);
        slow = g;
    }
    const pl::gate_id m = pl.add_gate(pl::gate_kind::compute, "m");
    pl.set_function(m, and2);
    wire(a, m, 0, false);
    wire(slow, m, 1, false);
    const pl::gate_id c = pl.add_gate(pl::gate_kind::compute, "c");
    pl.set_function(c, and2);
    wire(m, c, 0, false);
    wire(s, c, 1, true);
    const pl::gate_id y = pl.add_gate(pl::gate_kind::sink, "y");
    wire(c, y, 0, false);
    pl.attach_trigger(m, ~buffer, 0b01);  // a == 0 forces m to 0 early
    ASSERT_TRUE(pl.verify().ok()) << pl.verify().violation;

    sim_run_stats lanes{};
    expect_lanes_match_serial(pl, /*seed=*/9, /*count=*/64, {}, &lanes);
    EXPECT_GT(lanes.lane_splits, 0u);

    // The slab reached the source: the lanes' input-stable times differ.
    pl_simulator simulator(pl);
    const lane_block_result r = simulator.run_lanes(make_stimulus(64, 3, 9)).front();
    EXPECT_NE(*std::min_element(r.input_stable.begin(), r.input_stable.end()),
              *std::max_element(r.input_stable.begin(), r.input_stable.end()));
}

TEST(LaneSim, SlabAccountingOnAFixedCircuit) {
    // lane_slab_deposits counts every deposit that carries a slab, stored
    // or not; these are the counts of the engine that stores every slab,
    // summed over the run's four blocks.
    const built_circuit c = build_preset(wl::scenario::datapath_like, 120, 11, true);
    pl_simulator simulator(c.pl);
    simulator.run_lanes(make_stimulus(256, c.pl.sources().size(), 7));
    EXPECT_EQ(simulator.stats().events, 2356u);
    EXPECT_EQ(simulator.stats().lane_splits, 52u);
    EXPECT_EQ(simulator.stats().lane_slab_deposits, 1592u);

    // 200 vectors: the last block holds 8.  Its empty lanes fire too, each
    // on every master's normal path, and a slot's lanes agree only when all
    // 64 do, so an engine that compared the occupied lanes alone would
    // store scalars here and count fewer slab deposits.
    simulator.run_lanes(make_stimulus(200, c.pl.sources().size(), 7));
    EXPECT_EQ(simulator.stats().events, 2356u);
    EXPECT_EQ(simulator.stats().lane_splits, 51u);
    EXPECT_EQ(simulator.stats().lane_slab_deposits, 1587u);
}

// --- Satellite regressions: lane accounting ------------------------------

TEST(LaneSim, EeCountersAreOrderIndependentOnSequentialCircuits) {
    // Regression: EE hit/miss counters used to depend on how far the
    // post-completion drain raced ahead of the last sink record, so a lane
    // pass could not reproduce summed serial counters on feedback-heavy
    // circuits.  With firings capped at the wave horizon, every engine
    // counts each EE master exactly once per wave.
    const built_circuit c = build_bench("b04", true);
    std::size_t masters = 0;
    for (pl::gate_id g = 0; g < c.pl.num_gates(); ++g) {
        if (c.pl.gate(g).efire_in != pl::k_invalid_edge) ++masters;
    }
    ASSERT_GT(masters, 0u);
    const std::size_t n = 5;
    const std::vector<std::vector<bool>> vectors =
        random_vectors(n, c.pl.sources().size(), 7);
    pl_simulator cal(c.pl);
    cal.run(vectors);
    EXPECT_EQ(cal.stats().ee_hits + cal.stats().ee_misses, masters * n);
    testing::heap_oracle heap(c.pl);
    heap.run(vectors);
    EXPECT_EQ(heap.stats().ee_hits, cal.stats().ee_hits);
    EXPECT_EQ(heap.stats().ee_misses, cal.stats().ee_misses);
    EXPECT_EQ(heap.stats().ee_wins, cal.stats().ee_wins);
}

TEST(LaneSim, PureLockstepWithoutEarlyEvaluation) {
    // No EE masters -> no divergence source: no deposit needs a per-lane
    // time slab.
    const built_circuit c =
        build_preset(wl::scenario::random_dag, 80, 9, false);
    const std::vector<stimulus_block> blocks =
        make_stimulus(64, c.pl.sources().size(), 31);
    pl_simulator simulator(c.pl);
    simulator.run_lanes(blocks);
    EXPECT_EQ(simulator.stats().lane_slab_deposits, 0u);
    EXPECT_EQ(simulator.stats().lane_splits, 0u);
}

TEST(LaneSim, RejectsBadArguments) {
    const built_circuit c =
        build_preset(wl::scenario::random_dag, 40, 19, false);
    const std::size_t width = c.pl.sources().size();

    sim_options trace_opts;
    trace_opts.collect_trace = true;
    pl_simulator tracing(c.pl, trace_opts);
    const std::vector<stimulus_block> ok = make_stimulus(8, width, 1);
    EXPECT_THROW(tracing.run_lanes(ok), std::invalid_argument);

    pl_simulator simulator(c.pl);
    const std::vector<stimulus_block> narrow = make_stimulus(8, width + 1, 1);
    EXPECT_THROW(simulator.run_lanes(narrow), std::invalid_argument);

    // Every block is checked before the first one runs.
    stimulus_block empty;
    empty.width = width;
    empty.num_vectors = 0;
    empty.words.assign(width, 0);
    EXPECT_THROW(simulator.run_lanes({ok.front(), empty}), std::invalid_argument);
    EXPECT_EQ(simulator.stats().events, 0u);
}

TEST(LaneSim, CancelledTokenStopsTheBlockAtTheFirstCheck) {
    const built_circuit c =
        build_preset(wl::scenario::random_dag, 400, 27, false);
    const std::vector<stimulus_block> blocks =
        make_stimulus(k_lanes, c.pl.sources().size(), 5);
    {
        pl_simulator simulator(c.pl);
        simulator.run_lanes(blocks);
        ASSERT_GT(simulator.stats().events, k_cancel_check_events);
    }
    cancel_token token;
    token.cancel();
    pl_simulator simulator(c.pl, {}, {.label = "dag400", .cancel = &token});
    try {
        simulator.run_lanes(blocks);
        FAIL() << "a cancelled block completed";
    } catch (const job_timeout& e) {
        EXPECT_EQ(e.progress(), k_cancel_check_events);
        EXPECT_NE(std::string(e.what()).find("sim.events[dag400]"),
                  std::string::npos)
            << e.what();
    }
}

TEST(LaneSim, CancelledTokenStopsARunOfSmallBlocksAtTheFirstCheck) {
    // No block of this netlist reaches a check point alone, but one run
    // carries its event count across its blocks, so the first multiple of
    // k_cancel_check_events polls the cancelled token.
    const built_circuit c = build_preset(wl::scenario::random_dag, 40, 7, true);
    const std::vector<stimulus_block> blocks =
        make_stimulus(40 * k_lanes, c.pl.sources().size(), 5);
    {
        pl_simulator simulator(c.pl);
        simulator.run_lanes({blocks.front()});
        ASSERT_LT(simulator.stats().events, k_cancel_check_events);
    }
    cancel_token token;
    token.cancel();
    pl_simulator simulator(c.pl, {}, {.label = "dag40", .cancel = &token});
    try {
        simulator.run_lanes(blocks);
        FAIL() << "a cancelled run completed";
    } catch (const job_timeout& e) {
        EXPECT_EQ(e.progress(), k_cancel_check_events);
        EXPECT_NE(std::string(e.what()).find("sim.events[dag40]"), std::string::npos)
            << e.what();
    }
}

// --- Measurement path ----------------------------------------------------

TEST(LaneMeasure, EventBudgetCoversTheWholeMeasurement) {
    // A measurement is one simulator run on both protocols: blocks that each
    // stay under the budget exhaust it together, at exactly max_events + 1,
    // as the waves of a sequential run do.
    const built_circuit c = build_preset(wl::scenario::random_dag, 40, 7, true);
    pl_simulator probe(c.pl);
    probe.run_lanes(make_stimulus(k_lanes, c.pl.sources().size(), 1));
    const std::uint64_t per_block = probe.stats().events;
    for (const std::size_t lanes : {std::size_t{1}, k_lanes}) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        measure_options opts;
        opts.num_vectors = 4 * k_lanes;
        opts.lanes = lanes;
        opts.sim.max_events = 2 * per_block + per_block / 2;
        try {
            measure_average_delay(c.pl, &c.sync, opts, {.label = "dag40"});
            ADD_FAILURE() << "a measurement past its event budget completed";
        } catch (const budget_exhausted& e) {
            EXPECT_EQ(e.events(), opts.sim.max_events + 1);
            EXPECT_NE(std::string(e.what()).find(lanes == 1 ? "dataflow engine"
                                                            : "lane engine"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(LaneMeasure, MatchesSerialPerVectorReference) {
    const built_circuit c =
        build_preset(wl::scenario::datapath_like, 80, 21, true);
    measure_options opts;
    opts.num_vectors = 100;
    opts.seed = 4242;
    opts.lanes = k_lanes;
    const measure_result r = measure_average_delay(c.pl, &c.sync, opts);
    ASSERT_EQ(r.delays.size(), 100u);
    EXPECT_LE(r.stats.lane_slab_deposits, r.stats.events);

    // Every reported delay must equal a fresh serial single-vector run.
    const std::vector<std::vector<bool>> vectors =
        random_vectors(100, c.pl.sources().size(), opts.seed);
    pl_simulator ref(c.pl);
    for (std::size_t v = 0; v < vectors.size(); ++v) {
        const std::vector<wave_record> waves = ref.run({vectors[v]});
        EXPECT_DOUBLE_EQ(r.delays[v], waves.front().delay()) << "vector " << v;
    }
}

TEST(LaneMeasure, RejectsUnsupportedLaneCounts) {
    const built_circuit c =
        build_preset(wl::scenario::random_dag, 40, 25, false);
    measure_options opts;
    opts.lanes = 8;
    EXPECT_THROW(measure_average_delay(c.pl, &c.sync, opts),
                 std::invalid_argument);
}

}  // namespace
}  // namespace plee::sim
