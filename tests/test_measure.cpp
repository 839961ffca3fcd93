// Tests for the measurement harness (Section 4's protocol): random stimulus
// generation, delay statistics, the golden functional cross-check, the
// checks made before any draw and both arms from one simulation.

#include "sim/measure.hpp"

#include <gtest/gtest.h>

#include <string>

#include "ee/ee_transform.hpp"
#include "netlist/sync_sim.hpp"
#include "obs/registry.hpp"
#include "plain_plane.hpp"
#include "plogic/pl_mapper.hpp"
#include "rt/errors.hpp"
#include "synth/rtl.hpp"

namespace plee::sim {
namespace {

nl::netlist alu_netlist() {
    syn::module_builder m("alu");
    const syn::bus a = m.input_bus("a", 6);
    const syn::bus b = m.input_bus("b", 6);
    const syn::expr_id sel = m.input("sel");
    const syn::bus sum = m.add(a, b).sum;
    const syn::bus dif = m.sub(a, b).diff;
    m.output_bus("y", m.mux2(sel, sum, dif));
    m.output("eq", m.eq(a, b));
    return m.build();
}

/// A registered accumulator: a wrong LUT corrupts its state, so one
/// sequential run keeps diverging on later waves, while every lane-protocol
/// vector starts again from reset.
nl::netlist accumulator_netlist() {
    syn::module_builder m("acc");
    const syn::bus a = m.input_bus("a", 4);
    const syn::bus acc = m.new_register("acc", 4, 0);
    m.connect_register(acc, m.add(acc, a).sum);
    m.output_bus("acc", acc);
    m.output("eq", m.eq(acc, a));
    return m.build();
}

/// `n` with minterm `m` of LUT cell `c` flipped; cell ids are unchanged.
nl::netlist with_flipped_minterm(const nl::netlist& n, nl::cell_id c,
                                 std::uint32_t m) {
    nl::netlist out;
    for (nl::cell_id id = 0; id < n.num_cells(); ++id) {
        const nl::cell& cell = n.at(id);
        switch (cell.kind) {
            case nl::cell_kind::input: out.add_input(cell.name); break;
            case nl::cell_kind::constant: out.add_constant(cell.const_value); break;
            case nl::cell_kind::lut: {
                bf::truth_table fn = cell.function;
                if (id == c) fn.set(m, !fn.eval(m));
                out.add_lut(fn, cell.fanins, cell.name);
                break;
            }
            case nl::cell_kind::dff:
                out.add_dff(cell.fanins[0], cell.init_value, cell.name);
                break;
            case nl::cell_kind::output: out.add_output(cell.name, cell.fanins[0]); break;
        }
    }
    return out;
}

/// Vectors on which two synchronous netlists' outputs differ: one run over
/// all of them, or each from reset.
std::size_t diverging_vectors(const nl::netlist& a, const nl::netlist& b,
                              const std::vector<std::vector<bool>>& vectors,
                              bool from_reset) {
    nl::sync_simulator sa(a);
    nl::sync_simulator sb(b);
    std::size_t diverging = 0;
    for (const std::vector<bool>& v : vectors) {
        if (from_reset) {
            sa.reset();
            sb.reset();
        }
        if (sa.cycle(v) != sb.cycle(v)) ++diverging;
    }
    return diverging;
}

TEST(Measure, RandomVectorsAreDeterministicPerSeed) {
    const auto v1 = random_vectors(10, 8, 42);
    const auto v2 = random_vectors(10, 8, 42);
    const auto v3 = random_vectors(10, 8, 43);
    EXPECT_EQ(v1, v2);
    EXPECT_NE(v1, v3);
    EXPECT_EQ(v1.size(), 10u);
    EXPECT_EQ(v1.front().size(), 8u);
}

TEST(Measure, RandomVectorsMix) {
    const auto vs = random_vectors(64, 16, 7);
    std::size_t ones = 0;
    for (const auto& v : vs) {
        for (bool b : v) ones += b;
    }
    // Bernoulli(1/2): grossly unbalanced output would indicate a bug.
    EXPECT_GT(ones, 64u * 16u / 4);
    EXPECT_LT(ones, 64u * 16u * 3 / 4);
}

TEST(Measure, StatisticsAreConsistent) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options opts;
    opts.num_vectors = 50;
    const measure_result r = measure_average_delay(mapped.pl, &n, opts);

    EXPECT_EQ(r.delays.size(), 50u);
    EXPECT_GT(r.avg_delay, 0.0);
    EXPECT_LE(r.min_delay, r.avg_delay);
    EXPECT_GE(r.max_delay, r.avg_delay);
    EXPECT_GE(r.stddev, 0.0);

    double sum = 0;
    for (double d : r.delays) sum += d;
    EXPECT_NEAR(sum / 50.0, r.avg_delay, 1e-9);
}

TEST(Measure, GoldenComparisonPassesThroughEe) {
    const nl::netlist n = alu_netlist();
    pl::map_result mapped = pl::map_to_phased_logic(n);
    ee::apply_early_evaluation(mapped.pl);
    measure_options opts;
    opts.num_vectors = 100;  // the paper's count
    const measure_result r = measure_average_delay(mapped.pl, &n, opts);
    EXPECT_GT(r.stats.ee_hits + r.stats.ee_misses, 0u);
}

TEST(Measure, NullGoldenSkipsComparison) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options opts;
    opts.num_vectors = 5;
    const measure_result r = measure_average_delay(mapped.pl, nullptr, opts);
    EXPECT_EQ(r.delays.size(), 5u);
}

TEST(Measure, DelayIsSeedStableForFixedCircuit) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options opts;
    opts.num_vectors = 30;
    const measure_result r1 = measure_average_delay(mapped.pl, &n, opts);
    const measure_result r2 = measure_average_delay(mapped.pl, &n, opts);
    EXPECT_DOUBLE_EQ(r1.avg_delay, r2.avg_delay);
}

TEST(Measure, ZeroVectorsIsRejectedInBothProtocols) {
    // An average over no vectors would report 0 ns and verify nothing.
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    for (const std::size_t lanes : {std::size_t{1}, k_lanes}) {
        measure_options opts;
        opts.num_vectors = 0;
        opts.lanes = lanes;
        EXPECT_THROW(measure_average_delay(mapped.pl, &n, opts),
                     std::invalid_argument)
            << "lanes=" << lanes;
    }
}

TEST(Measure, AWrongLutFailsTheGoldenCheckInBothProtocols) {
    const nl::netlist golden = accumulator_netlist();
    const pl::map_result healthy = pl::map_to_phased_logic(golden);
    const std::size_t width = healthy.pl.sources().size();
    constexpr std::size_t k_vectors = 100;
    const std::vector<std::vector<bool>> vectors =
        random_vectors(k_vectors, width, measure_options{}.seed);

    // The first LUT minterm whose flip shows on some waves, but not all.
    nl::cell_id lut = nl::k_invalid_cell;
    std::uint32_t minterm = 0;
    std::size_t serial_count = 0;
    for (nl::cell_id c = 0; c < golden.num_cells() && lut == nl::k_invalid_cell; ++c) {
        if (golden.at(c).kind != nl::cell_kind::lut) continue;
        for (std::uint32_t m = 0; m < golden.at(c).function.num_minterms(); ++m) {
            const std::size_t count = diverging_vectors(
                golden, with_flipped_minterm(golden, c, m), vectors, false);
            if (count > 0 && count < k_vectors) {
                lut = c;
                minterm = m;
                serial_count = count;
                break;
            }
        }
    }
    ASSERT_NE(lut, nl::k_invalid_cell);
    const std::size_t lane_count = diverging_vectors(
        golden, with_flipped_minterm(golden, lut, minterm), vectors, true);
    ASSERT_GT(lane_count, 0u);

    pl::map_result wrong = pl::map_to_phased_logic(golden);
    const pl::gate_id g = wrong.gate_of_cell[lut];
    bf::truth_table fn = wrong.pl.gate(g).function;
    fn.set(minterm, !fn.eval(minterm));
    wrong.pl.set_function(g, fn);

    for (const std::size_t lanes : {std::size_t{1}, k_lanes}) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        const std::size_t expected = lanes == 1 ? serial_count : lane_count;
        measure_options opts;
        opts.num_vectors = k_vectors;
        opts.lanes = lanes;
        const auto expect_divergence = [&](const auto& measure) {
            try {
                measure();
                ADD_FAILURE() << "a wrong LUT passed the golden check";
            } catch (const plee_error& e) {
                EXPECT_NE(std::string(e.what()).find(
                              "diverge from the synchronous golden model on " +
                              std::to_string(expected) + " of 100 waves"),
                          std::string::npos)
                    << e.what();
            }
        };
        expect_divergence([&] { measure_average_delay(wrong.pl, &golden, opts); });
        expect_divergence([&] { measure_both_arms(wrong.pl, &golden, opts); });
        EXPECT_NO_THROW(measure_average_delay(healthy.pl, &golden, opts));
    }
}

TEST(Measure, BothArmsEqualSeparateMeasurementsInBothProtocols) {
    // One run of the EE netlist measures both arms: `plain` equals a
    // measurement of the mapping before the EE pass and `ee` one of the EE
    // netlist, delay for delay and counter for counter.  Both arms flush
    // into the registry, and the run adds one wall-time sample.
    const nl::netlist n = accumulator_netlist();
    const pl::map_result plain = pl::map_to_phased_logic(n);
    pl::pl_netlist with_ee = plain.pl;
    ASSERT_GT(ee::apply_early_evaluation(with_ee).triggers_added, 0u);
    obs::registry& reg = obs::registry::global();
    const obs::counter& vectors = reg.get_counter("sim.vectors");
    const obs::counter& events = reg.get_counter("sim.events");
    obs::histogram& runs = reg.get_histogram("sim.measure_wall_us");
    for (const std::size_t lanes : {std::size_t{1}, k_lanes}) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes));
        measure_options opts;
        opts.num_vectors = 100;
        opts.lanes = lanes;
        const measure_result want_plain = measure_average_delay(plain.pl, &n, opts);
        const measure_result want_ee = measure_average_delay(with_ee, &n, opts);
        const std::uint64_t vectors_before = vectors.value();
        const std::uint64_t events_before = events.value();
        const std::uint64_t runs_before = runs.snapshot().count;
        const measure_arms arms = measure_both_arms(with_ee, &n, opts);
        for (const auto& [want, got] : {std::pair{&want_plain, &arms.plain},
                                        std::pair{&want_ee, &arms.ee}}) {
            const std::string arm = want == &want_plain ? "plain" : "ee";
            EXPECT_EQ(want->delays, got->delays) << arm;
            EXPECT_EQ(want->avg_delay, got->avg_delay) << arm;
            EXPECT_EQ(want->min_delay, got->min_delay) << arm;
            EXPECT_EQ(want->max_delay, got->max_delay) << arm;
            EXPECT_EQ(want->stddev, got->stddev) << arm;
            EXPECT_TRUE(want->delay_hist == got->delay_hist) << arm;
            testing::expect_same_stats(want->stats, got->stats, arm);
        }
        EXPECT_GT(arms.ee.stats.ee_hits + arms.ee.stats.ee_misses, 0u);
        EXPECT_EQ(arms.plain.sim_wall_ms, arms.ee.sim_wall_ms);
        EXPECT_EQ(vectors.value() - vectors_before, 200u);
        EXPECT_EQ(events.value() - events_before,
                  arms.plain.stats.events + arms.ee.stats.events);
        EXPECT_EQ(runs.snapshot().count - runs_before, 1u);
    }
}

TEST(Measure, GoldenModelAndProtocolAreCheckedBeforeAnyDraw) {
    // Every check runs before the stimulus draw, whose first poll would
    // otherwise stop the cancelled measurement at sim.stimulus.
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    nl::netlist extra_input = n;
    extra_input.add_input("spare");
    nl::netlist extra_output = n;
    extra_output.add_output("spare", n.inputs().front());
    measure_options opts;
    opts.num_vectors = 10;
    EXPECT_EQ(measure_average_delay(mapped.pl, &n, opts).delays.size(), 10u);

    cancel_token token;
    token.cancel();
    const job_context cancelled{.label = "alu", .cancel = &token};
    const auto expect_rejected = [&](const nl::netlist* golden,
                                     const measure_options& options,
                                     const std::string& text) {
        for (const bool both : {false, true}) {
            try {
                if (both) {
                    measure_both_arms(mapped.pl, golden, options, cancelled);
                } else {
                    measure_average_delay(mapped.pl, golden, options, cancelled);
                }
                ADD_FAILURE() << text << " was measured";
            } catch (const std::invalid_argument& e) {
                EXPECT_NE(std::string(e.what()).find(text), std::string::npos)
                    << e.what();
            } catch (const job_timeout& e) {
                ADD_FAILURE() << text << " was drawn before it was checked: "
                              << e.what();
            }
        }
    };
    expect_rejected(&extra_input, opts, "inputs, netlist");
    expect_rejected(&extra_output, opts, "outputs, netlist");
    measure_options lanes = opts;
    lanes.lanes = 8;
    expect_rejected(&n, lanes, "lanes must be 1 or 64");
    expect_rejected(nullptr, lanes, "lanes must be 1 or 64");
    measure_options none = opts;
    none.num_vectors = 0;
    expect_rejected(&n, none, "num_vectors must be > 0");
    expect_rejected(nullptr, none, "num_vectors must be > 0");
}

TEST(Measure, CancelledTokenStopsTheStimulusDrawInBothProtocols) {
    // The draw polls before every block, so an expired token stops it before
    // the first one, with or without a golden model to run afterwards.  The
    // golden run's own poll (site sim.golden) is driven by a real deadline
    // in test_runner.
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    cancel_token token;
    token.cancel();
    for (const std::size_t lanes : {std::size_t{1}, k_lanes}) {
        measure_options opts;
        opts.num_vectors = 200;
        opts.lanes = lanes;
        for (const nl::netlist* golden : {&n, static_cast<const nl::netlist*>(nullptr)}) {
            try {
                measure_average_delay(mapped.pl, golden, opts,
                                      {.label = "alu", .cancel = &token});
                FAIL() << "a cancelled draw completed at lanes " << lanes;
            } catch (const job_timeout& e) {
                EXPECT_EQ(e.progress(), 0u) << lanes;
                EXPECT_NE(std::string(e.what()).find("sim.stimulus[alu]"),
                          std::string::npos)
                    << e.what();
            }
        }
    }
}

TEST(Measure, DelayModelScalesResults) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options slow;
    slow.num_vectors = 20;
    slow.sim.delays.d_lut = 10.0;  // stretch the LUT delay
    measure_options fast;
    fast.num_vectors = 20;
    const measure_result rs = measure_average_delay(mapped.pl, &n, slow);
    const measure_result rf = measure_average_delay(mapped.pl, &n, fast);
    EXPECT_GT(rs.avg_delay, rf.avg_delay * 2);
}

}  // namespace
}  // namespace plee::sim
