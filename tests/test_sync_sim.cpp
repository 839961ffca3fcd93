// Tests for the cycle-accurate synchronous reference simulator — the golden
// semantics every PL simulation is compared against.  The compiled models
// are checked net by net against the per-cell oracle in golden_oracle.hpp.

#include "netlist/sync_sim.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "golden_oracle.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

namespace plee::nl {
namespace {

bf::truth_table xor2() {
    return bf::truth_table::variable(2, 0) ^ bf::truth_table::variable(2, 1);
}

TEST(SyncSim, CombinationalEval) {
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id b = n.add_input("b");
    const cell_id g = n.add_lut(xor2(), {a, b});
    n.add_output("y", g);

    sync_simulator sim(n);
    for (bool av : {false, true}) {
        for (bool bv : {false, true}) {
            sim.set_inputs({av, bv});
            sim.eval();
            EXPECT_EQ(sim.value_of(g), av != bv);
        }
    }
}

TEST(SyncSim, ToggleRegister) {
    // q <= q xor 1 : divides by two.
    netlist n;
    const cell_id one = n.add_constant(true);
    const cell_id q = n.add_dff(k_invalid_cell, false, "q");
    const cell_id x = n.add_lut(xor2(), {q, one});
    n.set_dff_input(q, x);
    n.add_output("y", q);

    sync_simulator sim(n);
    std::vector<bool> seen;
    for (int i = 0; i < 6; ++i) {
        sim.eval();
        sim.latch();
        seen.push_back(sim.output_values().front());
    }
    EXPECT_EQ(seen, (std::vector<bool>{false, true, false, true, false, true}));
}

TEST(SyncSim, DffInitialValueRespected) {
    netlist n;
    const cell_id q = n.add_dff(k_invalid_cell, true, "q");
    n.set_dff_input(q, q);  // hold forever
    n.add_output("y", q);
    sync_simulator sim(n);
    sim.eval();
    EXPECT_TRUE(sim.value_of(q));
    sim.latch();
    sim.eval();
    EXPECT_TRUE(sim.value_of(q));
}

TEST(SyncSim, ResetRestoresInitialState) {
    netlist n;
    const cell_id one = n.add_constant(true);
    const cell_id q = n.add_dff(k_invalid_cell, false, "q");
    const cell_id x = n.add_lut(xor2(), {q, one});
    n.set_dff_input(q, x);
    n.add_output("y", q);

    sync_simulator sim(n);
    sim.eval();
    sim.latch();
    sim.eval();
    EXPECT_TRUE(sim.value_of(q));
    sim.reset();
    sim.eval();
    EXPECT_FALSE(sim.value_of(q));
}

TEST(SyncSim, CycleHelperReturnsPreEdgeOutputs) {
    // y = a xor q, q <= a.  In cycle k, y must use the *old* q.
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id q = n.add_dff(k_invalid_cell, false, "q");
    const cell_id y = n.add_lut(xor2(), {a, q});
    n.set_dff_input(q, a);
    n.add_output("y", y);

    sync_simulator sim(n);
    EXPECT_EQ(sim.cycle({true}), std::vector<bool>{true});    // q was 0
    EXPECT_EQ(sim.cycle({true}), std::vector<bool>{false});   // q is now 1
    EXPECT_EQ(sim.cycle({false}), std::vector<bool>{true});   // q still 1
    EXPECT_EQ(sim.cycle({false}), std::vector<bool>{false});  // q dropped to 0
}

TEST(SyncSim, SetInputsChecksWidth) {
    netlist n;
    n.add_input("a");
    n.add_input("b");
    const cell_id g = n.add_lut(xor2(), {n.inputs()[0], n.inputs()[1]});
    n.add_output("y", g);
    sync_simulator sim(n);
    EXPECT_THROW(sim.set_inputs({true}), std::invalid_argument);
    EXPECT_NO_THROW(sim.set_inputs({true, false}));
}

/// Hand-built corners: constant cells (one feeding a LUT, one an output),
/// a DFF -> DFF chain, a two-DFF register cycle, and outputs driven by an
/// input and by a DFF.
netlist corner_netlist() {
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id b = n.add_input("b");
    const cell_id one = n.add_constant(true);
    const cell_id zero = n.add_constant(false);
    const cell_id q1 = n.add_dff(k_invalid_cell, true, "q1");
    const cell_id q2 = n.add_dff(q1, false, "q2");  // DFF -> DFF
    const cell_id r1 = n.add_dff(k_invalid_cell, true, "r1");
    const cell_id r2 = n.add_dff(r1, false, "r2");
    n.set_dff_input(r1, r2);  // register-only cycle
    const bf::truth_table maj = bf::truth_table::from_string("00010111");
    const cell_id x = n.add_lut(xor2(), {a, q2});
    const cell_id m = n.add_lut(maj, {x, one, b});
    n.set_dff_input(q1, m);
    n.add_output("in", a);
    n.add_output("reg", q2);
    n.add_output("ring", r2);
    n.add_output("zero", zero);
    n.add_output("m", m);
    return n;
}

/// Every net of both compiled models against the oracle, after every
/// eval() and every latch(), with state carried across cycles: the scalar
/// model runs the first block's 64 vectors as 64 cycles, the lane model
/// `cycles` blocks.
void expect_models_match_oracle(const netlist& n, std::size_t cycles,
                                std::uint64_t seed, const std::string& label) {
    const std::vector<sim::stimulus_block> blocks =
        sim::make_stimulus(cycles * sim::k_lanes, n.inputs().size(), seed);
    const auto expect_nets = [&](const auto& model, const testing::golden_oracle& oracle,
                                 const char* when, std::size_t cycle) {
        for (cell_id id = 0; id < n.num_cells(); ++id) {
            ASSERT_EQ(static_cast<std::uint64_t>(model.value_of(id)), oracle.value_of(id))
                << label << ": net " << id << " after " << when << " " << cycle;
        }
    };

    sync_simulator scalar(n);
    testing::golden_oracle scalar_oracle(n, false);
    std::vector<bool> inputs;
    for (std::size_t v = 0; v < sim::k_lanes; ++v) {
        blocks[0].extract(v, inputs);
        scalar.set_inputs(inputs);
        for (std::size_t i = 0; i < inputs.size(); ++i) {
            scalar_oracle.set_input(n.inputs()[i], inputs[i] ? 1 : 0);
        }
        scalar.eval();
        scalar_oracle.eval();
        expect_nets(scalar, scalar_oracle, "scalar eval", v);
        scalar.latch();
        scalar_oracle.latch();
        expect_nets(scalar, scalar_oracle, "scalar latch", v);
    }

    sync_lane_simulator lanes(n);
    testing::golden_oracle lane_oracle(n, true);
    for (std::size_t b = 0; b < cycles; ++b) {
        lanes.set_inputs(blocks[b].words.data(), blocks[b].width);
        for (std::size_t i = 0; i < blocks[b].width; ++i) {
            lane_oracle.set_input(n.inputs()[i], blocks[b].words[i]);
        }
        lanes.eval();
        lane_oracle.eval();
        expect_nets(lanes, lane_oracle, "lane eval", b);
        lanes.latch();
        lane_oracle.latch();
        expect_nets(lanes, lane_oracle, "lane latch", b);
    }
}

TEST(SyncSim, CompiledModelsMatchThePerCellOracle) {
    // Every generator preset (LUT1-8, registers) at two seeds, plus the
    // hand-built corners.
    expect_models_match_oracle(corner_netlist(), 4, 5, "corners");
    for (const wl::scenario kind : wl::all_scenarios()) {
        for (const std::uint64_t seed : {3u, 17u}) {
            const std::string label =
                std::string(wl::to_string(kind)) + " seed " + std::to_string(seed);
            expect_models_match_oracle(wl::generate(wl::scenario_params(kind, 80, seed)),
                                       4, seed, label);
        }
    }
}

}  // namespace
}  // namespace plee::nl
