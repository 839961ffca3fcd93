// Golden cross-check of the schedule evaluator's sequential-wave protocol
// against the time-ordered binary-heap oracle (heap_oracle.hpp): the two
// must produce bit-identical wave records, stats and traces on every
// circuit family — the ITC99 suite and all four workload scenario presets —
// in pipelined and non-pipelined mode, on the traced run and the untraced
// one, and under stress delay models (tie-heavy, wide-spread, all-zero).
// Also locks the evaluator's contracts: the event budget at and around wave
// boundaries and the progress beats (the counts of counting every firing),
// trace order, early EE outputs timed before the master's own readiness,
// the plain time plane of an EE netlist against the oracle on the mapping
// without its triggers, the wave -1 preset and the traced run's trace
// across mixed protocols on one simulator, the
// rejection of unsafe, dead and split-reset netlists on both protocols,
// and the compile-time rejection of miswired and unsound EE pairs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "heap_oracle.hpp"
#include "obs/flight_recorder.hpp"
#include "plain_plane.hpp"
#include "plogic/pl_mapper.hpp"
#include "plogic/pl_netlist.hpp"
#include "sim/errors.hpp"
#include "sim/measure.hpp"
#include "sim/pl_sim.hpp"
#include "trigger_oracle.hpp"
#include "workload/workload.hpp"

namespace plee::sim {
namespace {

struct engine_run {
    std::vector<wave_record> waves;
    sim_run_stats stats;
    std::vector<trace_event> trace;
};

/// Which implementation simulate() drives.
enum class engine { heap_oracle, dataflow };

const char* to_string(engine e) {
    return e == engine::heap_oracle ? "heap" : "dataflow";
}

/// One run of `which`; with `traced`, the dataflow engine's traced run and
/// the oracle's trace, otherwise the untraced run and an empty trace.
engine_run simulate(const pl::pl_netlist& pl, engine which, bool non_pipelined,
                    bool traced, const std::vector<std::vector<bool>>& vectors,
                    const delay_model& delays = {}) {
    sim_options opts;
    opts.non_pipelined = non_pipelined;
    opts.delays = delays;
    engine_run run;
    if (which == engine::heap_oracle) {
        testing::heap_oracle oracle(pl, opts);
        run.waves = oracle.run(vectors);
        run.stats = oracle.stats();
        if (traced) run.trace = oracle.trace();
        return run;
    }
    pl_simulator simulator(pl, opts);
    run.waves = traced ? simulator.run(vectors, run.trace) : simulator.run(vectors);
    run.stats = simulator.stats();
    return run;
}

void expect_same_trace(const std::vector<trace_event>& want,
                       const std::vector<trace_event>& got, const std::string& label) {
    ASSERT_EQ(want.size(), got.size()) << label;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(want[i].time, got[i].time) << label << " #" << i;
        EXPECT_EQ(want[i].edge, got[i].edge) << label << " #" << i;
        EXPECT_EQ(want[i].value, got[i].value) << label << " #" << i;
    }
}

/// Bit-identical means exact: outputs, all three timestamps of every wave,
/// every stats counter, and the full trace (ordering included).
void expect_identical(const engine_run& heap, const engine_run& cal,
                      const std::string& label) {
    ASSERT_EQ(heap.waves.size(), cal.waves.size()) << label;
    for (std::size_t w = 0; w < heap.waves.size(); ++w) {
        const wave_record& a = heap.waves[w];
        const wave_record& b = cal.waves[w];
        EXPECT_EQ(a.outputs, b.outputs) << label << " wave " << w;
        EXPECT_EQ(a.release_time, b.release_time) << label << " wave " << w;
        EXPECT_EQ(a.input_stable, b.input_stable) << label << " wave " << w;
        EXPECT_EQ(a.output_stable, b.output_stable) << label << " wave " << w;
    }
    EXPECT_EQ(heap.stats.events, cal.stats.events) << label;
    EXPECT_EQ(heap.stats.firings, cal.stats.firings) << label;
    EXPECT_EQ(heap.stats.ee_hits, cal.stats.ee_hits) << label;
    EXPECT_EQ(heap.stats.ee_misses, cal.stats.ee_misses) << label;
    EXPECT_EQ(heap.stats.ee_wins, cal.stats.ee_wins) << label;
    expect_same_trace(heap.trace, cal.trace, label);
}

/// The oracle and the dataflow engine across all four (pipelined x trace)
/// modes.
void check_all_modes(const pl::pl_netlist& pl, const std::string& label,
                     std::size_t num_vectors, const delay_model& delays = {}) {
    const std::vector<std::vector<bool>> vectors =
        random_vectors(num_vectors, pl.sources().size(), 0x5eed);
    for (bool non_pipelined : {true, false}) {
        for (bool trace : {false, true}) {
            const std::string mode =
                label + (non_pipelined ? " non-pipelined" : " pipelined") +
                (trace ? " trace" : "");
            expect_identical(simulate(pl, engine::heap_oracle, non_pipelined,
                                      trace, vectors, delays),
                             simulate(pl, engine::dataflow, non_pipelined,
                                      trace, vectors, delays),
                             mode);
        }
    }
}

pl::pl_netlist map_with_ee(const nl::netlist& netlist) {
    pl::map_result mapped = pl::map_to_phased_logic(netlist);
    ee::apply_early_evaluation(mapped.pl);
    return std::move(mapped.pl);
}

/// The plain time plane of `ee`, an EE netlist, against the heap oracle on
/// `plain`, the same netlist without its triggers: outputs, every wave's
/// times and every counter, in both environment modes.
void expect_plain_plane_matches_oracle(const pl::pl_netlist& plain,
                                       const pl::pl_netlist& ee,
                                       const std::string& label,
                                       std::size_t num_vectors) {
    const std::vector<std::vector<bool>> vectors =
        random_vectors(num_vectors, plain.sources().size(), 0x5eed);
    for (bool non_pipelined : {true, false}) {
        const std::string mode =
            label + " plain plane" + (non_pipelined ? " non-pipelined" : " pipelined");
        sim_options opts;
        opts.non_pipelined = non_pipelined;
        testing::heap_oracle oracle(plain, opts);
        const std::vector<wave_record> want = oracle.run(vectors);
        pl_simulator simulator(ee, opts);
        testing::expect_plain_waves(want, simulator.run(vectors), mode);
        testing::expect_same_stats(oracle.stats(), simulator.plain_stats(), mode);
    }
}

TEST(SimQueue, Itc99SuiteBitIdentical) {
    for (const bench::benchmark_info& info : bench::itc99_suite()) {
        const pl::map_result plain = pl::map_to_phased_logic(info.build());
        pl::pl_netlist ee = plain.pl;
        ee::apply_early_evaluation(ee);
        check_all_modes(ee, info.id, 6);
        expect_plain_plane_matches_oracle(plain.pl, ee, info.id, 6);
    }
}

TEST(SimQueue, WorkloadPresetsBitIdentical) {
    for (wl::scenario kind : wl::all_scenarios()) {
        const nl::netlist netlist =
            wl::generate(wl::scenario_params(kind, 120, 99));
        // Plain PL mapping and the EE-transformed circuit both count: the
        // EE masters exercise the efire path and the invariant checker.
        const pl::pl_netlist plain = pl::map_to_phased_logic(netlist).pl;
        const pl::pl_netlist ee = map_with_ee(netlist);
        check_all_modes(plain, std::string(wl::to_string(kind)) + "/plain", 8);
        check_all_modes(ee, std::string(wl::to_string(kind)) + "/ee", 8);
        expect_plain_plane_matches_oracle(plain, ee, wl::to_string(kind), 8);
    }
}

TEST(SimQueue, WideArityLut6PlusPipelineBitIdentical) {
    // The multiword end-to-end: a workload-generated wide-arity netlist
    // (LUT5-8 gates, multiword truth tables), EE-transformed, must simulate
    // bit-identically on the oracle and the engine — and the run must
    // actually exercise the wide path: at least one attached trigger must
    // belong to a master with more than 6 data pins.
    for (wl::scenario kind : {wl::scenario::lut6_dag, wl::scenario::lut8_datapath}) {
        const nl::netlist netlist =
            wl::generate(wl::scenario_params(kind, 160, 2026));
        pl::map_result mapped = pl::map_to_phased_logic(netlist);
        const ee::ee_stats stats = ee::apply_early_evaluation(mapped.pl);
        ASSERT_GT(stats.triggers_added, 0u) << wl::to_string(kind);

        std::size_t wide_masters = 0;
        std::size_t widest_pins = 0;
        for (const ee::applied_trigger& at : stats.applied) {
            const std::size_t pins = mapped.pl.data_in(at.master).size();
            widest_pins = std::max(widest_pins, pins);
            if (pins > 6) ++wide_masters;
            // Every attached trigger re-derives exactly from the master via
            // the scalar per-minterm oracle — the EE pass went through the
            // multiword kernels, the oracle does not.
            ASSERT_EQ(at.candidate.function,
                      ee::scalar::exact_trigger_function(
                          mapped.pl.gate(at.master).function,
                          at.candidate.support))
                << wl::to_string(kind) << " master " << at.master;
        }
        if (kind == wl::scenario::lut8_datapath) {
            EXPECT_GT(wide_masters, 0u)
                << "no >6-pin EE master generated; widest=" << widest_pins;
        }
        check_all_modes(mapped.pl, std::string(wl::to_string(kind)) + "/wide-ee", 6);
    }
}

TEST(SimQueue, StressDelayModelsBitIdentical) {
    const nl::netlist netlist =
        wl::generate(wl::scenario_params(wl::scenario::random_dag, 80, 7));
    const pl::pl_netlist pl = map_with_ee(netlist);

    // Tie-heavy: every component equal, so most deposits share times and the
    // seq tie-break decides the order.
    delay_model ties;
    ties.d_celem = ties.d_lut = ties.d_latch = ties.d_ee_penalty =
        ties.d_source = 1.0;
    check_all_modes(pl, "ties", 6, ties);

    // Spread-heavy: a 5e5x spread between the smallest and largest delay,
    // so early and late deposits interleave across many time scales.
    delay_model spread;
    spread.d_source = 1e-4;
    spread.d_lut = 50.0;
    check_all_modes(pl, "spread", 4, spread);

    // Degenerate all-zero model: every event lands at time 0, so the heap's
    // order is pure seq and the trace order is pure edge order.
    delay_model zero;
    zero.d_celem = zero.d_lut = zero.d_latch = zero.d_ee_penalty =
        zero.d_source = 0.0;
    check_all_modes(pl, "zero", 6, zero);
}

TEST(SimQueue, EventBudgetExhaustsIdentically) {
    const pl::pl_netlist pl = map_with_ee(bench::make_b05());
    const std::vector<std::vector<bool>> vectors =
        random_vectors(50, pl.sources().size(), 1);
    sim_options opts;
    opts.max_events = 1000;
    testing::heap_oracle oracle(pl, opts);
    EXPECT_THROW(oracle.run(vectors), budget_exhausted);
    pl_simulator simulator(pl, opts);
    EXPECT_THROW(simulator.run(vectors), budget_exhausted);
    // Every engine stops at exactly the budget boundary, the lane engine
    // included.
    EXPECT_EQ(oracle.stats().events, 1001u);
    EXPECT_EQ(simulator.stats().events, 1001u);
    const std::vector<stimulus_block> blocks =
        make_stimulus(64, pl.sources().size(), 1);
    pl_simulator lanes(pl, opts);
    EXPECT_THROW(lanes.run_lanes(blocks), budget_exhausted);
    EXPECT_EQ(lanes.stats().events, 1001u);
}

/// Events of one wave of `pl`: every gate fires once per wave, so a
/// one-vector run counts exactly one wave's deposits.
std::uint64_t events_per_wave(const pl::pl_netlist& pl) {
    pl_simulator simulator(pl);
    simulator.run(random_vectors(1, pl.sources().size(), 1));
    return simulator.stats().events;
}

TEST(SimQueue, EventBudgetSweepAcrossWaveBoundaries) {
    // Budgets at and around whole waves and one mid-wave: both protocols
    // stop at exactly max_events + 1, where the heap oracle stops.
    const pl::pl_netlist pl = map_with_ee(bench::make_b05());
    const std::uint64_t e = events_per_wave(pl);
    ASSERT_GT(e, 8u);
    const std::vector<std::vector<bool>> vectors =
        random_vectors(7, pl.sources().size(), 2);
    const std::vector<stimulus_block> blocks =
        make_stimulus(64, pl.sources().size(), 2);
    std::vector<std::uint64_t> budgets = {3 * e + e / 2};
    for (std::uint64_t w : {1u, 2u, 5u}) {
        for (std::uint64_t b = e * w - 2; b <= e * w + 2; ++b) budgets.push_back(b);
    }
    for (std::uint64_t budget : budgets) {
        sim_options opts;
        opts.max_events = budget;
        testing::heap_oracle oracle(pl, opts);
        EXPECT_THROW(oracle.run(vectors), budget_exhausted) << budget;
        EXPECT_EQ(oracle.stats().events, budget + 1);
        pl_simulator simulator(pl, opts);
        try {
            simulator.run(vectors);
            ADD_FAILURE() << "no budget_exhausted at " << budget;
        } catch (const budget_exhausted& err) {
            EXPECT_EQ(err.events(), budget + 1);
            EXPECT_EQ(simulator.stats().events, budget + 1);
        }
        // The lane protocol runs one wave: it runs out below e events.
        testing::heap_oracle one(pl, opts);
        const bool oracle_throws = [&] {
            try {
                one.run({vectors.front()});
                return false;
            } catch (const budget_exhausted&) {
                return true;
            }
        }();
        pl_simulator lanes(pl, opts);
        try {
            lanes.run_lanes(blocks);
            EXPECT_FALSE(oracle_throws) << budget;
            EXPECT_EQ(lanes.stats().events, e);
        } catch (const budget_exhausted& err) {
            EXPECT_TRUE(oracle_throws) << budget;
            EXPECT_EQ(err.events(), budget + 1);
        }
    }
}

TEST(SimQueue, ProgressBeatsFollowPerFiringCounting) {
    // One sim.progress beat per multiple of k_cancel_check_events crossed,
    // stamped with the multiple and the waves completed when the firing
    // that crossed it ran.
    const pl::pl_netlist pl = map_with_ee(bench::make_b05());
    const std::uint64_t e = events_per_wave(pl);
    const std::size_t waves = 40;
    obs::flight_recorder recorder(4096);
    pl_simulator simulator(pl, {}, {.label = "b05", .recorder = &recorder});
    simulator.run(random_vectors(waves, pl.sources().size(), 4));
    const std::vector<obs::fr_event> beats = recorder.dump();
    ASSERT_EQ(beats.size(), waves * e / k_cancel_check_events);
    for (std::size_t i = 0; i < beats.size(); ++i) {
        const std::uint64_t multiple = (i + 1) * k_cancel_check_events;
        EXPECT_STREQ(beats[i].tag, "sim.progress");
        EXPECT_EQ(beats[i].a, multiple);
        EXPECT_EQ(beats[i].b, (multiple - 1) / e) << "beat " << i;
    }

    // The lane protocol, one wave per block: its run carries the count
    // across the blocks, and each beat is stamped with the blocks done.
    obs::flight_recorder lane_recorder(4096);
    pl_simulator lanes(pl, {}, {.label = "b05", .recorder = &lane_recorder});
    lanes.run_lanes(make_stimulus(waves * k_lanes, pl.sources().size(), 4));
    const std::vector<obs::fr_event> lane_beats = lane_recorder.dump();
    ASSERT_EQ(lane_beats.size(), waves * e / k_cancel_check_events);
    for (std::size_t i = 0; i < lane_beats.size(); ++i) {
        const std::uint64_t multiple = (i + 1) * k_cancel_check_events;
        EXPECT_EQ(lane_beats[i].a, multiple);
        EXPECT_EQ(lane_beats[i].b, (multiple - 1) / e) << "beat " << i;
    }
}

/// Expects the pl_simulator constructor to reject `pl` after 0 events, on
/// the schedule engine, with a message that contains `text`.
void expect_schedule_rejects(const pl::pl_netlist& pl, const std::string& text) {
    try {
        pl_simulator simulator(pl, {}, {.label = "ee-pair"});
        FAIL() << "expected sim::invariant_violation";
    } catch (const invariant_violation& err) {
        const std::string what = err.what();
        EXPECT_EQ(err.events(), 0u);
        EXPECT_NE(what.find("schedule engine"), std::string::npos) << what;
        EXPECT_NE(what.find(text), std::string::npos) << what;
        EXPECT_NE(what.find("ee-pair"), std::string::npos) << what;
    }
}

/// The same, naming EE master `master`.
void expect_rejected_pair(const pl::pl_netlist& pl, pl::gate_id master) {
    expect_schedule_rejects(pl, "EE master gate " + std::to_string(master) + " '" +
                                    std::string(pl.name(master)) + "'");
}

TEST(SimQueue, MiswiredTriggerIsRejectedWhenTheScheduleCompiles) {
    // A trigger gate whose function disagrees with what its master expects:
    // an extra tap pin outside the support, on which the trigger turns to
    // 0.  The schedule's proof rejects it before any firing, whatever the
    // stimulus; the heap oracle, which recomputes every trigger at run
    // time, still throws at the first firing where the trigger is 1 on the
    // master's pins and the extra pin is 1.
    pl::map_result mapped = pl::map_to_phased_logic(bench::make_b05());
    const ee::ee_stats stats = ee::apply_early_evaluation(mapped.pl);
    ASSERT_FALSE(stats.applied.empty());
    pl::pl_netlist& pl = mapped.pl;
    const ee::applied_trigger& at = stats.applied.front();

    // A master whose function's arity stops matching its pins after the
    // pair was attached is rejected as a mis-sized LUT, before the proof
    // reads it.
    pl::pl_netlist narrowed = pl;
    narrowed.set_function(at.master, bf::truth_table::variable(1, 0));
    expect_schedule_rejects(narrowed, "gate " + std::to_string(at.master) + " '" +
                                          std::string(pl.name(at.master)) +
                                          "': its function's arity differs");

    std::uint32_t extra_pin = 0;
    while ((at.candidate.support >> extra_pin) & 1u) ++extra_pin;
    const pl::pl_edge tap = pl.edge(pl.data_in(at.master)[extra_pin]);
    const int k = at.candidate.function.num_vars();
    pl.add_data_edge(tap.from, at.trigger, k, tap.init_token, tap.init_value);
    pl.add_ack_edge(at.trigger, tap.from, !tap.init_token);
    const bf::truth_table trig = at.candidate.function;
    pl.set_function(at.trigger, bf::truth_table::from_function(
                                    k + 1, [&](std::uint32_t m) {
                                        return trig.eval(m & ((1u << k) - 1)) &&
                                               !((m >> k) & 1u);
                                    }));
    ASSERT_TRUE(pl.verify().ok()) << pl.verify().violation;

    expect_rejected_pair(pl, at.master);
    testing::heap_oracle oracle(pl);
    EXPECT_THROW(oracle.run(random_vectors(100, pl.sources().size(), 9)),
                 invariant_violation);
}

TEST(SimQueue, MixedProtocolsOnOneSimulatorMatchFreshOnes) {
    // Registers that reset to 1: a lane run must read the wave -1 preset
    // even right after a sequential run wrote both wave parities.  The
    // traced run takes its turn too, twice per round into one vector, so
    // each trace replaces the last instead of appending to it.
    nl::netlist n;
    const nl::cell_id a = n.add_input("a");
    const nl::cell_id b = n.add_input("b");
    const bf::truth_table x0 = bf::truth_table::variable(2, 0);
    const bf::truth_table x1 = bf::truth_table::variable(2, 1);
    const nl::cell_id q0 = n.add_dff(a, true, "q0");
    const nl::cell_id q1 = n.add_dff(b, true, "q1");
    const nl::cell_id g0 = n.add_lut(x0 & x1, {a, q1});
    const nl::cell_id g1 = n.add_lut(x0 | x1, {q0, b});
    const nl::cell_id g2 = n.add_lut(x0 ^ x1, {g0, g1});
    n.set_dff_input(q0, g2);
    n.set_dff_input(q1, g0);
    n.add_output("o0", g2);
    n.add_output("o1", q1);
    const pl::pl_netlist pl = map_with_ee(n);
    const std::vector<stimulus_block> blocks = make_stimulus(100, 2, 12);
    std::vector<std::vector<bool>> vectors(100);
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        blocks[w / k_lanes].extract(w % k_lanes, vectors[w]);
    }
    pl_simulator fresh_tracer(pl);
    std::vector<trace_event> trace_want;
    fresh_tracer.run(vectors, trace_want);
    ASSERT_FALSE(trace_want.empty());

    pl_simulator mixed(pl);
    std::vector<trace_event> trace;
    for (int round = 0; round < 3; ++round) {
        const std::string at = "round " + std::to_string(round);
        const std::vector<wave_record> traced = mixed.run(vectors, trace);
        expect_same_trace(trace_want, trace, at + " traced");
        const std::vector<wave_record> waves = mixed.run_packed(blocks);
        const lane_block_result lanes = mixed.run_lanes({blocks[round % 2]}).front();
        pl_simulator fresh_seq(pl);
        const std::vector<wave_record> want = fresh_seq.run_packed(blocks);
        ASSERT_EQ(waves.size(), want.size());
        ASSERT_EQ(traced.size(), want.size());
        for (std::size_t w = 0; w < waves.size(); ++w) {
            EXPECT_EQ(traced[w].outputs, want[w].outputs) << round << "/" << w;
            EXPECT_EQ(traced[w].output_stable, want[w].output_stable);
            EXPECT_EQ(waves[w].outputs, want[w].outputs) << round << "/" << w;
            EXPECT_EQ(waves[w].input_stable, want[w].input_stable);
            EXPECT_EQ(waves[w].output_stable, want[w].output_stable);
            EXPECT_EQ(waves[w].release_time, want[w].release_time);
            EXPECT_EQ(waves[w].plain_input_stable, want[w].plain_input_stable);
            EXPECT_EQ(waves[w].plain_output_stable, want[w].plain_output_stable);
            EXPECT_EQ(waves[w].plain_release_time, want[w].plain_release_time);
        }
        pl_simulator fresh_lanes(pl);
        const lane_block_result lane_want =
            fresh_lanes.run_lanes({blocks[round % 2]}).front();
        EXPECT_EQ(lanes.outputs, lane_want.outputs) << round;
        EXPECT_EQ(lanes.input_stable, lane_want.input_stable);
        EXPECT_EQ(lanes.output_stable, lane_want.output_stable);
        EXPECT_EQ(lanes.plain_input_stable, lane_want.plain_input_stable);
        EXPECT_EQ(lanes.plain_output_stable, lane_want.plain_output_stable);
        const std::vector<trace_event> first = trace;
        mixed.run(vectors, trace);
        expect_same_trace(first, trace, at + " traced again");
    }
}

TEST(SimQueue, OversizedEventBudgetNeedsNoFallback) {
    // The dataflow engine has no packed queue key to overflow, so a 2^60
    // budget runs on it directly and matches the oracle.
    const pl::pl_netlist pl = map_with_ee(bench::make_b02());
    const std::vector<std::vector<bool>> vectors =
        random_vectors(10, pl.sources().size(), 3);
    sim_options huge;
    huge.max_events = std::uint64_t{1} << 60;
    pl_simulator fallback(pl, huge);
    testing::heap_oracle reference(pl);
    const std::vector<wave_record> a = fallback.run(vectors);
    const std::vector<wave_record> b = reference.run(vectors);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t w = 0; w < a.size(); ++w) {
        EXPECT_EQ(a[w].outputs, b[w].outputs);
        EXPECT_EQ(a[w].output_stable, b[w].output_stable);
    }
    EXPECT_EQ(fallback.stats().events, reference.stats().events);
}

/// The trace contract: sorted by (time, edge), and one edge's deposits in
/// wave order.  Wave order is checked where the waves are known from
/// outside the trace: the k-th deposit on each source's first output edge
/// carries stimulus k, and the k-th deposit on each sink's input edge
/// carries output k; the latest of those is the wave's stable time.
void expect_trace_contract(const pl::pl_netlist& pl,
                           const std::vector<std::vector<bool>>& vectors,
                           const engine_run& run, const std::string& label) {
    for (std::size_t i = 1; i < run.trace.size(); ++i) {
        const trace_event& a = run.trace[i - 1];
        const trace_event& b = run.trace[i];
        ASSERT_TRUE(a.time < b.time || (a.time == b.time && a.edge <= b.edge))
            << label << " #" << i;
    }
    std::vector<std::vector<const trace_event*>> by_edge(pl.num_edges());
    for (const trace_event& ev : run.trace) by_edge[ev.edge].push_back(&ev);
    const std::size_t waves = run.waves.size();
    std::vector<double> input_stable(waves, 0.0);
    std::vector<double> output_stable(waves, 0.0);
    for (std::size_t i = 0; i < pl.sources().size(); ++i) {
        const auto outs = pl.out_edges(pl.sources()[i]);
        if (outs.empty()) continue;
        const auto& deps = by_edge[outs.front()];
        ASSERT_EQ(deps.size(), waves) << label << " source " << i;
        for (std::size_t k = 0; k < waves; ++k) {
            EXPECT_EQ(deps[k]->value, vectors[k][i]) << label << " wave " << k;
            input_stable[k] = std::max(input_stable[k], deps[k]->time);
        }
    }
    for (std::size_t j = 0; j < pl.sinks().size(); ++j) {
        // A sink fed straight from a register reads wave 0 from the initial
        // marking, which is not traced: its k-th deposit is wave k + 1.
        const pl::edge_id in = pl.data_in(pl.sinks()[j]).front();
        const std::size_t skip = pl.edge(in).init_token ? 1 : 0;
        const auto& deps = by_edge[in];
        ASSERT_EQ(deps.size(), waves) << label << " sink " << j;
        for (std::size_t k = skip; k < waves; ++k) {
            EXPECT_EQ(deps[k - skip]->value, run.waves[k].outputs[j])
                << label << " wave " << k;
            output_stable[k] = std::max(output_stable[k], deps[k - skip]->time);
        }
    }
    for (std::size_t k = 0; k < waves; ++k) {
        EXPECT_EQ(input_stable[k], run.waves[k].input_stable)
            << label << " wave " << k;
        EXPECT_EQ(output_stable[k], run.waves[k].output_stable)
            << label << " wave " << k;
    }
}

TEST(SimQueue, TraceSortedByTimeThenEdgeInWaveOrder) {
    const pl::pl_netlist pl = map_with_ee(
        wl::generate(wl::scenario_params(wl::scenario::control_fsm, 80, 5)));
    delay_model ties;
    ties.d_celem = ties.d_lut = ties.d_latch = ties.d_ee_penalty =
        ties.d_source = 1.0;
    delay_model zero;
    zero.d_celem = zero.d_lut = zero.d_latch = zero.d_ee_penalty =
        zero.d_source = 0.0;
    const std::vector<std::vector<bool>> vectors =
        random_vectors(8, pl.sources().size(), 17);
    for (const auto& [name, delays] :
         {std::pair<const char*, delay_model>{"default", {}},
          {"ties", ties},
          {"zero", zero}}) {
        for (bool non_pipelined : {true, false}) {
            for (engine which : {engine::heap_oracle, engine::dataflow}) {
                const std::string label =
                    std::string(name) + " " + to_string(which) +
                    (non_pipelined ? " non-pipelined" : " pipelined");
                expect_trace_contract(
                    pl, vectors,
                    simulate(pl, which, non_pipelined, true, vectors, delays),
                    label);
            }
        }
    }
}

/// Sources a and b feed m = a AND c (gate chain + 2), where c is b behind a
/// chain of `chain` inverters, and m feeds sink y.  Every data edge has its
/// own initially marked acknowledge, so the netlist is live and safe.
pl::pl_netlist pair_behind_slow_input(int chain) {
    pl::pl_netlist pl;
    const pl::gate_id a = pl.add_gate(pl::gate_kind::source, "a");
    const pl::gate_id b = pl.add_gate(pl::gate_kind::source, "b");
    pl::gate_id prev = b;
    for (int i = 0; i < chain; ++i) {
        const pl::gate_id inv =
            pl.add_gate(pl::gate_kind::compute, "inv" + std::to_string(i));
        pl.set_function(inv, ~bf::truth_table::variable(1, 0));
        pl.add_data_edge(prev, inv, 0, false, false);
        pl.add_ack_edge(inv, prev, true);
        prev = inv;
    }
    const pl::gate_id m = pl.add_gate(pl::gate_kind::compute, "m");
    pl.set_function(m, bf::truth_table::variable(2, 0) &
                           bf::truth_table::variable(2, 1));
    pl.add_data_edge(a, m, 0, false, false);
    pl.add_data_edge(prev, m, 1, false, false);
    pl.add_ack_edge(m, a, true);
    pl.add_ack_edge(m, prev, true);
    const pl::gate_id y = pl.add_gate(pl::gate_kind::sink, "y");
    pl.add_data_edge(m, y, 0, false, false);
    pl.add_ack_edge(y, m, true);
    return pl;
}

/// pair_behind_slow_input with m made an EE master whose trigger over the
/// `support` pins (by default a) is `trigger`, by default "the pin is 0".
/// With a == 0 the early output is timed before the slow input arrives,
/// i.e. before m's own t_ready.
pl::pl_netlist ee_pair_behind_slow_input(
    int chain, const bf::truth_table& trigger = ~bf::truth_table::variable(1, 0),
    std::uint32_t support = 0b01) {
    pl::pl_netlist pl = pair_behind_slow_input(chain);
    pl.attach_trigger(static_cast<pl::gate_id>(chain + 2), trigger, support);
    return pl;
}

TEST(SimQueue, EarlyOutputBeforeMasterReadyMatchesHeap) {
    constexpr int k_chain = 3;
    const pl::pl_netlist pl = ee_pair_behind_slow_input(k_chain);
    ASSERT_TRUE(pl.verify().ok()) << pl.verify().violation;
    std::vector<std::vector<bool>> vectors;
    for (int k = 0; k < 16; ++k) vectors.push_back({k % 3 == 2, (k & 1) != 0});
    const delay_model d{};
    const double slow_arrival = d.d_source + k_chain * d.gate_delay();
    for (bool non_pipelined : {true, false}) {
        for (bool trace : {false, true}) {
            const std::string label =
                std::string(non_pipelined ? "non-pipelined" : "pipelined") +
                (trace ? " trace" : "");
            const engine_run heap = simulate(pl, engine::heap_oracle,
                                             non_pipelined, trace, vectors);
            const engine_run dataflow = simulate(pl, engine::dataflow,
                                                 non_pipelined, trace, vectors);
            // Wave 0 has a == 0: its output lands before m's slow input.
            EXPECT_LT(dataflow.waves[0].output_stable, slow_arrival) << label;
            EXPECT_GT(dataflow.stats.ee_wins, 0u) << label;
            expect_identical(heap, dataflow, label);
        }
    }
}

TEST(SimQueue, PlainPlaneOfAnEePairMatchesTheGadgetFreeNetlist) {
    // The plain plane of a run of an EE netlist must time the netlist
    // without the trigger exactly as the heap oracle times that netlist, on
    // both protocols.  Two pairs: the trigger over the fast pin a wins (with
    // a == 0, m's output lands before its slow input, while m waits for it
    // in the plain plane), and the trigger over the slow pin arrives after
    // m's other pins, so a plain plane that saw it would read m late.
    constexpr int k_chain = 3;
    const pl::pl_netlist plain = pair_behind_slow_input(k_chain);
    ASSERT_TRUE(plain.verify().ok()) << plain.verify().violation;
    std::vector<std::vector<bool>> vectors;
    for (int k = 0; k < 16; ++k) vectors.push_back({k % 3 == 2, (k & 1) != 0});
    const stimulus_block block = make_stimulus(64, 2, 3).front();
    const delay_model d{};
    const double slow_arrival = d.d_source + k_chain * d.gate_delay();
    for (const std::uint32_t support : {0b01u, 0b10u}) {
        const pl::pl_netlist ee = ee_pair_behind_slow_input(
            k_chain, ~bf::truth_table::variable(1, 0), support);
        for (bool non_pipelined : {true, false}) {
            const std::string mode = "support " + std::to_string(support) +
                                     (non_pipelined ? " non-pipelined" : " pipelined");
            sim_options opts;
            opts.non_pipelined = non_pipelined;
            testing::heap_oracle oracle(plain, opts);
            const std::vector<wave_record> want = oracle.run(vectors);
            pl_simulator simulator(ee, opts);
            const std::vector<wave_record> waves = simulator.run(vectors);
            if (support == 0b01u) {
                EXPECT_LT(waves[0].output_stable, slow_arrival) << mode;
                EXPECT_GT(waves[0].plain_output_stable, slow_arrival) << mode;
                EXPECT_GT(simulator.stats().ee_wins, 0u) << mode;
            }
            testing::expect_plain_waves(want, waves, mode);
            testing::expect_same_stats(oracle.stats(), simulator.plain_stats(), mode);
        }

        // With the trigger over a, lanes with a == 0 take the early path, so
        // the EE plane splits; the plain plane stays one time for every
        // lane, that of the netlist without the trigger.
        pl_simulator want(plain);
        const lane_block_result want_lanes = want.run_lanes({block}).front();
        pl_simulator got(ee);
        const lane_block_result got_lanes = got.run_lanes({block}).front();
        if (support == 0b01u) {
            EXPECT_GT(got.stats().lane_splits, 0u);
        }
        testing::expect_plain_lanes(want_lanes, got_lanes, "lanes");
        testing::expect_same_stats(want.stats(), got.plain_stats(), "lanes");
    }
}

TEST(SimQueue, UnsoundTriggerIsRejectedWhenTheScheduleCompiles) {
    // Correctly wired pairs whose trigger fires where the master's output
    // still depends on its other pin.  A run would time the master's full
    // value at the early time, so every output would still match the
    // golden model while the delay is understated.
    const auto only_master = [](const pl::pl_netlist& pl) {
        pl::gate_id g = 0;
        while (pl.gate(g).trigger == pl::k_invalid_gate) ++g;
        return g;
    };
    // m = a AND c with trigger a: a == 1 leaves the output open.
    const pl::pl_netlist fires_on_one =
        ee_pair_behind_slow_input(3, bf::truth_table::variable(1, 0));
    ASSERT_TRUE(fires_on_one.verify().ok());
    expect_rejected_pair(fires_on_one, only_master(fires_on_one));

    // The sound pair, after the master's function changes to XOR: no
    // value of a alone decides it.
    pl::pl_netlist xor_master = ee_pair_behind_slow_input(3);
    const pl::gate_id m = only_master(xor_master);
    xor_master.set_function(m, bf::truth_table::variable(2, 0) ^
                                   bf::truth_table::variable(2, 1));
    ASSERT_TRUE(xor_master.verify().ok());
    expect_rejected_pair(xor_master, m);
}

TEST(SimQueue, UnsafeNetlistRejectedByTheConstructorInBothModes) {
    // A source with no acknowledge input free-runs, so verify() rejects the
    // netlist.  Safety is a precondition of the schedule: the constructor
    // raises the violation in both environment modes, where the oracle's
    // timing hides the overrun (the consumer fires between the two
    // deposits there).
    pl::pl_netlist pl;
    const pl::gate_id src = pl.add_gate(pl::gate_kind::source, "in");
    const pl::gate_id g = pl.add_gate(pl::gate_kind::compute, "g");
    pl.set_function(g, bf::truth_table::variable(1, 0));
    const pl::gate_id snk = pl.add_gate(pl::gate_kind::sink, "out");
    pl.add_data_edge(src, g, 0, false, false);
    pl.add_data_edge(g, snk, 0, false, false);
    pl.add_ack_edge(snk, g, true);
    EXPECT_FALSE(pl.verify().ok());

    const std::vector<std::vector<bool>> vectors = {{true}, {false}};
    for (bool non_pipelined : {true, false}) {
        sim_options opts;
        opts.non_pipelined = non_pipelined;
        try {
            pl_simulator dataflow(pl, opts);
            FAIL() << "expected sim::invariant_violation";
        } catch (const invariant_violation& e) {
            EXPECT_EQ(e.events(), 0u);
            EXPECT_NE(std::string(e.what()).find("lies on no directed cycle"),
                      std::string::npos);
            EXPECT_NE(std::string(e.what()).find("schedule engine"),
                      std::string::npos);
        }
        testing::heap_oracle heap(pl, opts);
        EXPECT_NO_THROW(heap.run(vectors));
    }
}

TEST(SimQueue, SafetyAndLivenessViolationsDetectedOnBothProtocols) {
    // The overrun of test_pl_sim's UnsafeNetlistRejectedBeforeTheRun: an
    // unacknowledged source outruns a gate blocked on a second input.
    pl::pl_netlist pl;
    const pl::gate_id src = pl.add_gate(pl::gate_kind::source, "in");
    const pl::gate_id slow = pl.add_gate(pl::gate_kind::compute, "slow");
    pl.set_function(slow, bf::truth_table::variable(2, 0) &
                              bf::truth_table::variable(2, 1));
    const pl::gate_id late = pl.add_gate(pl::gate_kind::source, "late");
    const pl::gate_id snk = pl.add_gate(pl::gate_kind::sink, "out");
    pl.add_data_edge(src, slow, 0, false, false);
    pl.add_data_edge(late, slow, 1, false, false);
    pl.add_data_edge(slow, snk, 0, false, false);
    pl.add_ack_edge(snk, slow, true);
    pl.add_ack_edge(slow, late, true);
    sim_options opts;
    opts.non_pipelined = false;
    const std::vector<std::vector<bool>> overrun = {
        {true, false}, {true, false}, {true, false}};
    testing::heap_oracle oracle(pl, opts);
    EXPECT_THROW(oracle.run(overrun), invariant_violation);
    EXPECT_THROW(pl_simulator(pl, opts), invariant_violation);

    // A netlist whose consumer waits for an acknowledge that only its own
    // output could earn: buf -> out -> buf is a token-free cycle, so the
    // constructor reports the deadlock before either protocol runs.
    pl::pl_netlist marked;
    const pl::gate_id in = marked.add_gate(pl::gate_kind::source, "in");
    const pl::gate_id buf = marked.add_gate(pl::gate_kind::compute, "buf");
    marked.set_function(buf, bf::truth_table::variable(1, 0));
    const pl::gate_id out = marked.add_gate(pl::gate_kind::sink, "out");
    marked.add_data_edge(in, buf, 0, true, false);
    marked.add_data_edge(buf, out, 0, false, false);
    marked.add_ack_edge(out, buf, false);
    try {
        pl_simulator lanes(marked);
        FAIL() << "expected sim::deadlock_error";
    } catch (const deadlock_error& e) {
        EXPECT_NE(std::string(e.what()).find("token-free cycle through gate 1 'buf'"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("schedule engine"), std::string::npos);
    }
}

TEST(SimQueue, MarkedOutEdgesWithDifferentInitialValuesRejected) {
    // The schedule presets one wave -1 value per producer, so two initially
    // marked data out-edges of one register must agree on it.
    const auto reg_with_two_sinks = [](bool a_init, bool b_init) {
        pl::pl_netlist pl;
        const pl::gate_id in = pl.add_gate(pl::gate_kind::source, "in");
        const pl::gate_id reg = pl.add_gate(pl::gate_kind::through, "reg");
        const pl::gate_id a = pl.add_gate(pl::gate_kind::sink, "a");
        const pl::gate_id b = pl.add_gate(pl::gate_kind::sink, "b");
        pl.add_data_edge(in, reg, 0, false, false);
        pl.add_ack_edge(reg, in, true);
        pl.add_data_edge(reg, a, 0, true, a_init);
        pl.add_ack_edge(a, reg, false);
        pl.add_data_edge(reg, b, 0, true, b_init);
        pl.add_ack_edge(b, reg, false);
        return pl;
    };
    const pl::pl_netlist split = reg_with_two_sinks(false, true);
    ASSERT_TRUE(split.verify().ok()) << split.verify().violation;
    try {
        pl_simulator simulator(split, {}, {.label = "split-reset"});
        FAIL() << "expected sim::invariant_violation";
    } catch (const invariant_violation& e) {
        EXPECT_NE(std::string(e.what()).find("gate 1 'reg'"), std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("split-reset"), std::string::npos);
    }
    // With equal initial values the same netlist simulates.
    const pl::pl_netlist same = reg_with_two_sinks(true, true);
    pl_simulator simulator(same);
    const std::vector<wave_record> waves = simulator.run({{false}, {false}});
    EXPECT_EQ(waves[0].outputs, (std::vector<bool>{true, true}));
    EXPECT_EQ(waves[1].outputs, (std::vector<bool>{false, false}));
}

}  // namespace
}  // namespace plee::sim
