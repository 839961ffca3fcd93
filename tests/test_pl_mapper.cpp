// Tests for the synchronous -> Phased Logic direct mapping: gate/edge
// construction, acknowledge feedback insertion, the feedback-sharing
// optimization, and the live/safe guarantees of Section 2.

#include "plogic/pl_mapper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "synth/fsm.hpp"
#include "synth/rtl.hpp"

namespace plee::pl {
namespace {

nl::netlist tiny_comb() {
    syn::module_builder m("tiny");
    const syn::expr_id a = m.input("a");
    const syn::expr_id b = m.input("b");
    m.output("y", m.arena().and_(a, b));
    return m.build();
}

nl::netlist tiny_counter() {
    syn::module_builder m("cnt");
    const syn::expr_id en = m.input("en");
    const syn::bus q = m.new_register("q", 3, 0);
    m.connect_register(q, m.mux2(en, m.inc(q), q));
    m.output_bus("q", q);
    return m.build();
}

TEST(PlMapper, CombinationalMapping) {
    const nl::netlist n = tiny_comb();
    const map_result r = map_to_phased_logic(n);
    EXPECT_EQ(r.pl.sources().size(), 2u);
    EXPECT_EQ(r.pl.sinks().size(), 1u);
    EXPECT_EQ(r.pl.num_pl_gates(), n.num_pl_mappable());
    EXPECT_TRUE(verify_marked_graph(r.pl).ok());
}

TEST(PlMapper, EveryCellHasAGate) {
    const nl::netlist n = tiny_counter();
    const map_result r = map_to_phased_logic(n);
    for (nl::cell_id c = 0; c < n.num_cells(); ++c) {
        EXPECT_NE(r.gate_of_cell[c], k_invalid_gate);
    }
}

TEST(PlMapper, RegisterOutputsCarryInitialTokens) {
    const nl::netlist n = tiny_counter();
    const map_result r = map_to_phased_logic(n);
    for (const pl_edge& e : r.pl.edges()) {
        if (e.kind != edge_kind::data) continue;
        const bool from_through = r.pl.gate(e.from).kind == gate_kind::through;
        EXPECT_EQ(e.init_token, from_through);
    }
}

TEST(PlMapper, AckMarkingComplementsDataMarking) {
    const nl::netlist n = tiny_counter();
    const map_result r = map_to_phased_logic(n);
    for (const pl_edge& e : r.pl.edges()) {
        if (e.kind != edge_kind::ack) continue;
        const bool producer_is_through = r.pl.gate(e.to).kind == gate_kind::through;
        EXPECT_EQ(e.init_token, !producer_is_through);
    }
}

TEST(PlMapper, SequentialMappingIsLiveAndSafe) {
    const map_result r = map_to_phased_logic(tiny_counter());
    const mg_report report = verify_marked_graph(r.pl);
    EXPECT_TRUE(report.well_formed);
    EXPECT_TRUE(report.live);
    EXPECT_TRUE(report.safe);
}

TEST(PlMapper, ConservativeModeAcksEveryFanoutPair) {
    map_options conservative;
    conservative.share_feedbacks = false;
    const nl::netlist n = tiny_counter();
    const map_result r = map_to_phased_logic(n, conservative);
    EXPECT_TRUE(verify_marked_graph(r.pl).ok());
    EXPECT_EQ(r.stats.acks_saved_by_natural_cycles, 0u);
    EXPECT_EQ(r.stats.acks_saved_by_sharing, 0u);

    // One ack per distinct (producer, consumer) fanout pair.
    std::size_t distinct_pairs = 0;
    {
        std::set<std::pair<gate_id, gate_id>> pairs;
        for (const pl_edge& e : r.pl.edges()) {
            if (e.kind == edge_kind::data) pairs.insert({e.from, e.to});
        }
        distinct_pairs = pairs.size();
    }
    EXPECT_EQ(r.pl.num_ack_edges(), distinct_pairs);
}

TEST(PlMapper, SharingSavesAcks) {
    // A register feeding logic that feeds back to the register D input forms
    // a natural cycle, so the optimizer must save at least one ack there.
    const nl::netlist n = tiny_counter();
    map_options shared;
    shared.share_feedbacks = true;
    const map_result opt = map_to_phased_logic(n, shared);
    map_options full;
    full.share_feedbacks = false;
    const map_result cons = map_to_phased_logic(n, full);

    EXPECT_GT(opt.stats.acks_saved_by_natural_cycles +
                  opt.stats.acks_saved_by_sharing,
              0u);
    EXPECT_LT(opt.pl.num_ack_edges(), cons.pl.num_ack_edges());
    EXPECT_TRUE(verify_marked_graph(opt.pl).ok());
}

TEST(PlMapper, MapsWideLutsUpToTheTruthTableLimit) {
    // The paper's gate is a LUT4, but the mapping rules are arity-blind: a
    // LUT of any width the truth-table layer can express becomes one compute
    // gate whose marked graph still verifies.
    for (int k : {5, 7, 8}) {
        nl::netlist n;
        std::vector<nl::cell_id> ins;
        for (int i = 0; i < k; ++i) ins.push_back(n.add_input("i" + std::to_string(i)));
        const bf::truth_table or_k = bf::truth_table::from_function(
            k, [](std::uint32_t m) { return m != 0; });
        n.add_output("y", n.add_lut(or_k, ins));
        const map_result mapped = map_to_phased_logic(n);
        EXPECT_TRUE(verify_marked_graph(mapped.pl).ok()) << "k=" << k;
    }
    // Beyond 8 inputs there is no truth table to put in the LUT at all.
    EXPECT_THROW(bf::truth_table(9), std::invalid_argument);
}

TEST(PlMapper, ConstantsBecomeConstSources) {
    nl::netlist n;
    const nl::cell_id one = n.add_constant(true);
    const nl::cell_id q = n.add_dff(nl::k_invalid_cell, false, "q");
    n.set_dff_input(q, one);
    n.add_output("y", q);

    const map_result r = map_to_phased_logic(n);
    const pl_gate& g = r.pl.gate(r.gate_of_cell[one]);
    EXPECT_EQ(g.kind, gate_kind::const_source);
    EXPECT_TRUE(g.const_value);
    EXPECT_TRUE(verify_marked_graph(r.pl).ok());
}

TEST(PlMapper, ArrivalDepthMatchesCombDepth) {
    // A chain a & b -> xor c -> output: depths 1 and 2.
    syn::module_builder m("depth");
    auto& ar = m.arena();
    const syn::expr_id a = m.input("a");
    const syn::expr_id b = m.input("b");
    const syn::expr_id c = m.input("c");
    const syn::expr_id d = m.input("d");
    const syn::expr_id e = m.input("e");
    // Force two LUT levels: (a&b&c&d) ^ e cannot pack into one LUT4.
    const syn::expr_id wide = ar.and_(ar.and_(a, b), ar.and_(c, d));
    m.output("y", ar.xor_(wide, e));
    const nl::netlist n = m.build();
    ASSERT_EQ(n.num_luts(), 2u);

    const map_result r = map_to_phased_logic(n);
    const std::vector<int> depth = r.pl.arrival_depth();
    int max_depth = 0;
    for (gate_id g = 0; g < r.pl.num_gates(); ++g) {
        if (r.pl.gate(g).kind == gate_kind::compute) {
            max_depth = std::max(max_depth, depth[g]);
        }
        if (r.pl.gate(g).kind == gate_kind::source) {
            EXPECT_EQ(depth[g], 0);
        }
    }
    EXPECT_EQ(max_depth, 2);
}

TEST(PlMapper, FsmBenchmarkVerifies) {
    syn::module_builder m("fsm");
    const syn::expr_id go = m.input("go");
    syn::fsm_builder fsm(m, "f", 5, 0);
    fsm.transition(0, go, 1);
    fsm.transition(1, go, 2);
    fsm.transition(2, go, 3);
    fsm.transition(3, go, 4);
    fsm.transition(4, go, 0);
    m.output("last", fsm.in_state(4));
    fsm.finalize();
    const nl::netlist n = m.build();
    const map_result r = map_to_phased_logic(n);
    EXPECT_TRUE(verify_marked_graph(r.pl).ok());
    EXPECT_GT(r.stats.acks_added, 0u);
}

TEST(PlMapper, DotExportShowsAcksDashed) {
    const map_result r = map_to_phased_logic(tiny_comb());
    const std::string dot = r.pl.to_dot();
    EXPECT_NE(dot.find("style=dashed"), std::string::npos);
    EXPECT_NE(dot.find("style=solid"), std::string::npos);
}

}  // namespace
}  // namespace plee::pl
