// Tests for the event-driven PL simulator: functional equivalence with the
// synchronous golden model, the non-pipelined measurement protocol, EE
// timing behaviour, and the dynamic liveness/safety checking.

#include "sim/pl_sim.hpp"

#include <gtest/gtest.h>

#include "ee/ee_transform.hpp"
#include "netlist/sync_sim.hpp"
#include "plogic/pl_mapper.hpp"
#include "sim/errors.hpp"
#include "sim/measure.hpp"
#include "synth/rtl.hpp"

namespace plee::sim {
namespace {

nl::netlist adder_netlist(int width) {
    syn::module_builder m("adder");
    const syn::bus a = m.input_bus("a", width);
    const syn::bus b = m.input_bus("b", width);
    const auto r = m.add(a, b);
    m.output_bus("sum", r.sum);
    m.output("cout", r.carry);
    return m.build();
}

nl::netlist counter_netlist() {
    syn::module_builder m("cnt");
    const syn::expr_id en = m.input("en");
    const syn::bus q = m.new_register("q", 4, 0);
    m.connect_register(q, m.mux2(en, m.inc(q), q));
    m.output_bus("q", q);
    m.output("wrap", m.eq_const(q, 15));
    return m.build();
}

std::vector<std::vector<bool>> exhaustive_vectors(std::size_t width) {
    std::vector<std::vector<bool>> vs;
    for (std::uint32_t m = 0; m < (1u << width); ++m) {
        std::vector<bool> v;
        for (std::size_t i = 0; i < width; ++i) v.push_back((m >> i) & 1u);
        vs.push_back(std::move(v));
    }
    return vs;
}

TEST(PlSim, CombinationalMatchesGolden) {
    const nl::netlist n = adder_netlist(3);
    const pl::map_result mapped = pl::map_to_phased_logic(n);

    const auto vectors = exhaustive_vectors(6);
    pl_simulator sim(mapped.pl);
    const auto waves = sim.run(vectors);

    nl::sync_simulator gold(n);
    ASSERT_EQ(waves.size(), vectors.size());
    for (std::size_t w = 0; w < waves.size(); ++w) {
        EXPECT_EQ(waves[w].outputs, gold.cycle(vectors[w])) << "wave " << w;
    }
}

TEST(PlSim, SequentialMatchesGoldenCycleByCycle) {
    const nl::netlist n = counter_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);

    const auto vectors = random_vectors(64, 1, 77);
    pl_simulator sim(mapped.pl);
    const auto waves = sim.run(vectors);

    nl::sync_simulator gold(n);
    for (std::size_t w = 0; w < waves.size(); ++w) {
        EXPECT_EQ(waves[w].outputs, gold.cycle(vectors[w])) << "wave " << w;
    }
}

TEST(PlSim, DelaysArePositiveAndOrdered) {
    const nl::netlist n = adder_netlist(4);
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    pl_simulator sim(mapped.pl);
    const auto waves = sim.run(random_vectors(20, 8, 5));
    double prev_stable = -1.0;
    for (const wave_record& w : waves) {
        EXPECT_GT(w.delay(), 0.0);
        EXPECT_GT(w.output_stable, prev_stable);  // waves complete in order
        prev_stable = w.output_stable;
    }
}

TEST(PlSim, NonPipelinedReleasesAfterStability) {
    const nl::netlist n = adder_netlist(4);
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    pl_simulator sim(mapped.pl);
    const auto waves = sim.run(random_vectors(10, 8, 9));
    for (std::size_t w = 1; w < waves.size(); ++w) {
        // Vector k+1 is presented only after wave k's outputs stabilized.
        EXPECT_GE(waves[w].input_stable, waves[w - 1].output_stable);
    }
}

TEST(PlSim, PipelinedModeIsFaster) {
    const nl::netlist n = adder_netlist(6);
    const pl::map_result mapped = pl::map_to_phased_logic(n);

    sim_options non_piped;
    non_piped.non_pipelined = true;
    pl_simulator s1(mapped.pl, non_piped);
    const auto w1 = s1.run(random_vectors(50, 12, 3));

    sim_options piped;
    piped.non_pipelined = false;
    pl_simulator s2(mapped.pl, piped);
    const auto w2 = s2.run(random_vectors(50, 12, 3));

    EXPECT_EQ(w1.size(), w2.size());
    for (std::size_t w = 0; w < w1.size(); ++w) {
        EXPECT_EQ(w1[w].outputs, w2[w].outputs);  // same values either way
    }
    // Total makespan shrinks when tokens stream.
    EXPECT_LT(w2.back().output_stable, w1.back().output_stable);
}

TEST(PlSim, EarlyEvaluationPreservesFunction) {
    const nl::netlist n = adder_netlist(6);
    pl::map_result mapped = pl::map_to_phased_logic(n);
    ee::apply_early_evaluation(mapped.pl);

    const auto vectors = random_vectors(80, 12, 21);
    pl_simulator sim(mapped.pl);
    const auto waves = sim.run(vectors);

    nl::sync_simulator gold(n);
    for (std::size_t w = 0; w < waves.size(); ++w) {
        EXPECT_EQ(waves[w].outputs, gold.cycle(vectors[w])) << "wave " << w;
    }
    EXPECT_GT(sim.stats().ee_hits + sim.stats().ee_misses, 0u);
}

TEST(PlSim, EarlyEvaluationSpeedsUpAdder) {
    const nl::netlist n = adder_netlist(8);
    pl::map_result base = pl::map_to_phased_logic(n);
    pl::map_result eed = pl::map_to_phased_logic(n);
    ee::apply_early_evaluation(eed.pl);

    const auto vectors = random_vectors(100, 16, 1234);
    pl_simulator s_base(base.pl);
    pl_simulator s_ee(eed.pl);
    const auto w_base = s_base.run(vectors);
    const auto w_ee = s_ee.run(vectors);

    double base_total = 0, ee_total = 0;
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        base_total += w_base[w].delay();
        ee_total += w_ee[w].delay();
    }
    EXPECT_LT(ee_total, base_total);  // the paper's core claim, in the small
    EXPECT_GT(s_ee.stats().ee_wins, 0u);
}

TEST(PlSim, EeMissPathPaysPenalty) {
    // Force misses by zeroing both operands of an AND-tree... simplest: an
    // adder driven with propagate-heavy vectors (a = ~b) so carry triggers
    // (generate/kill detectors) miss at every stage.
    const nl::netlist n = adder_netlist(4);
    pl::map_result base = pl::map_to_phased_logic(n);
    pl::map_result eed = pl::map_to_phased_logic(n);
    ee::apply_early_evaluation(eed.pl);

    std::vector<std::vector<bool>> vectors;
    for (int k = 0; k < 10; ++k) {
        std::vector<bool> v;
        for (int i = 0; i < 4; ++i) v.push_back((k + i) % 2 == 0);
        for (int i = 0; i < 4; ++i) v.push_back(!v[static_cast<std::size_t>(i)]);
        vectors.push_back(std::move(v));
    }
    pl_simulator s_base(base.pl);
    pl_simulator s_ee(eed.pl);
    const auto w_base = s_base.run(vectors);
    const auto w_ee = s_ee.run(vectors);
    // All-propagate vectors: EE cannot win on the final carry and the extra
    // Muller-C element costs time — the slight degradations of Table 3.
    EXPECT_GE(w_ee.back().delay(), w_base.back().delay());
}

TEST(PlSim, StatsCountFirings) {
    const nl::netlist n = counter_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    pl_simulator sim(mapped.pl);
    sim.run(random_vectors(16, 1, 4));
    // Every compute/through gate fires once per wave (plus env gates).
    EXPECT_GE(sim.stats().firings, 16u * mapped.pl.num_pl_gates());
    EXPECT_GT(sim.stats().events, 0u);
}


TEST(PlSim, RunsAreBitAndTimeDeterministic) {
    // Two simulators over the same netlist and stimulus must agree on every
    // output bit and every timestamp (the event queue is seeded with a
    // deterministic tie-break).
    const nl::netlist n = adder_netlist(5);
    pl::map_result mapped = pl::map_to_phased_logic(n);
    ee::apply_early_evaluation(mapped.pl);
    const auto vectors = random_vectors(40, 10, 77);

    pl_simulator s1(mapped.pl);
    pl_simulator s2(mapped.pl);
    const auto w1 = s1.run(vectors);
    const auto w2 = s2.run(vectors);
    ASSERT_EQ(w1.size(), w2.size());
    for (std::size_t w = 0; w < w1.size(); ++w) {
        EXPECT_EQ(w1[w].outputs, w2[w].outputs);
        EXPECT_DOUBLE_EQ(w1[w].output_stable, w2[w].output_stable);
        EXPECT_DOUBLE_EQ(w1[w].input_stable, w2[w].input_stable);
    }
    EXPECT_EQ(s1.stats().events, s2.stats().events);
    EXPECT_EQ(s1.stats().ee_hits, s2.stats().ee_hits);
}

TEST(PlSim, ReRunningOneSimulatorResets) {
    const nl::netlist n = counter_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    const auto vectors = random_vectors(12, 1, 3);
    pl_simulator sim(mapped.pl);
    const auto first = sim.run(vectors);
    const auto second = sim.run(vectors);  // must start from the reset state
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        EXPECT_EQ(first[w].outputs, second[w].outputs) << "wave " << w;
    }
}

TEST(PlSim, VectorWidthChecked) {
    const nl::netlist n = adder_netlist(2);
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    pl_simulator sim(mapped.pl);
    EXPECT_THROW(sim.run({{true}}), std::invalid_argument);
}

TEST(PlSim, DeadlockDetectedOnBrokenMarking) {
    // Hand-build a PL netlist whose compute gate never receives an ack back:
    // source -> compute -> sink but the compute->source ack is missing, and
    // source waits on a never-marked ack edge: deadlock after wave 1.
    pl::pl_netlist pl;
    const pl::gate_id src = pl.add_gate(pl::gate_kind::source, "in");
    const pl::gate_id g = pl.add_gate(pl::gate_kind::compute, "g");
    pl.set_function(g, ~bf::truth_table::variable(1, 0));
    const pl::gate_id snk = pl.add_gate(pl::gate_kind::sink, "out");
    pl.add_data_edge(src, g, 0, false, false);
    pl.add_data_edge(g, snk, 0, false, false);
    pl.add_ack_edge(snk, g, true);
    pl.add_ack_edge(g, src, false);  // never marked: the source starves

    try {
        pl_simulator sim(pl);
        FAIL() << "expected sim::deadlock_error";
    } catch (const deadlock_error& e) {
        // The typed failure's what() carries the liveness diagnostic plus
        // the engine context.
        EXPECT_EQ(e.events(), 0u);
        EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
        EXPECT_NE(std::string(e.what()).find("schedule engine"),
                  std::string::npos);
        // The diagnostic names a gate on the token-free cycle in -> g -> in.
        EXPECT_NE(std::string(e.what()).find("token-free cycle through gate 0 'in'"),
                  std::string::npos)
            << e.what();
    }
}

TEST(PlSim, UnsafeNetlistRejectedBeforeTheRun) {
    // A producer with NO feedback at all can overrun its consumer: the
    // source could fire wave 2 while wave 1's token still sits on the edge.
    // verify() rejects it, so the constructor throws, in both environment
    // modes.
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
    // note: no ack from `slow` back to `src` — src free-runs.

    for (bool non_pipelined : {true, false}) {
        sim_options opts;
        opts.non_pipelined = non_pipelined;
        try {
            pl_simulator sim(pl, opts);
            FAIL() << "expected sim::invariant_violation";
        } catch (const invariant_violation& e) {
            EXPECT_EQ(e.events(), 0u);
            EXPECT_NE(std::string(e.what()).find("schedule engine"),
                      std::string::npos);
        }
    }
}

TEST(PlSim, MisSizedLutRejectedWhenTheScheduleCompiles) {
    // A LUT evaluates its table at the minterm its pins form, so a table
    // with fewer variables than pins would be read past its end: a 2-pin
    // gate given the 1-variable function "a" would output 0 for a = b = 1.
    // verify() checks only the marked graph, so it passes the netlist; the
    // constructor rejects it, naming the gate.
    const auto expect_rejected = [](const pl::pl_netlist& pl, const std::string& gate) {
        try {
            pl_simulator sim(pl, {}, {.label = "lut"});
            FAIL() << "expected sim::invariant_violation";
        } catch (const invariant_violation& e) {
            const std::string what = e.what();
            EXPECT_EQ(e.events(), 0u);
            EXPECT_NE(what.find("gate " + gate + ": its function's arity differs"),
                      std::string::npos)
                << what;
            EXPECT_NE(what.find("schedule engine"), std::string::npos) << what;
            EXPECT_NE(what.find("lut"), std::string::npos) << what;
        }
    };
    const auto and_gate = [] {
        pl::pl_netlist pl;
        const pl::gate_id a = pl.add_gate(pl::gate_kind::source, "a");
        const pl::gate_id b = pl.add_gate(pl::gate_kind::source, "b");
        const pl::gate_id g = pl.add_gate(pl::gate_kind::compute, "g");
        pl.set_function(g, bf::truth_table::variable(2, 0) &
                               bf::truth_table::variable(2, 1));
        const pl::gate_id y = pl.add_gate(pl::gate_kind::sink, "y");
        pl.add_data_edge(a, g, 0, false, false);
        pl.add_data_edge(b, g, 1, false, false);
        pl.add_data_edge(g, y, 0, false, false);
        pl.add_ack_edge(g, a, true);
        pl.add_ack_edge(g, b, true);
        pl.add_ack_edge(y, g, true);
        return pl;
    };
    // The well-sized gate simulates.
    const pl::pl_netlist sized = and_gate();
    pl_simulator simulator(sized);
    EXPECT_EQ(simulator.run({{true, true}}).front().outputs, std::vector<bool>{true});

    pl::pl_netlist narrowed = and_gate();
    narrowed.set_function(2, bf::truth_table::variable(1, 0));
    ASSERT_TRUE(narrowed.verify().ok());
    expect_rejected(narrowed, "2 'g'");

    // A trigger gate is a LUT too: the 1-pin trigger of g (a == 0 forces
    // g to 0) given a 2-variable function.
    pl::pl_netlist trig = and_gate();
    const pl::gate_id t = trig.attach_trigger(2, ~bf::truth_table::variable(1, 0), 0b01);
    trig.set_function(t, bf::truth_table::variable(2, 0));
    ASSERT_TRUE(trig.verify().ok());
    expect_rejected(trig, std::to_string(t) + " 'g_ee'");
}

TEST(PlSim, CancelledTokenStopsTheRunAtTheFirstCheck) {
    const pl::map_result mapped = pl::map_to_phased_logic(adder_netlist(8));
    const std::vector<std::vector<bool>> vectors =
        random_vectors(40, mapped.pl.sources().size(), 3);
    {
        pl_simulator sim(mapped.pl);
        sim.run(vectors);
        ASSERT_GT(sim.stats().events, k_cancel_check_events);
    }
    cancel_token token;
    token.cancel();
    pl_simulator sim(mapped.pl, {}, {.label = "adder8", .cancel = &token});
    try {
        sim.run(vectors);
        FAIL() << "a cancelled run completed";
    } catch (const job_timeout& e) {
        EXPECT_EQ(e.progress(), k_cancel_check_events);
        EXPECT_NE(std::string(e.what()).find("sim.events[adder8]"),
                  std::string::npos)
            << e.what();
    }
}

}  // namespace
}  // namespace plee::sim
