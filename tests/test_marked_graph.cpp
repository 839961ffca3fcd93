// Tests for the marked-graph verification that Section 2 requires of every
// PL netlist: well-formed, live and safe.  Each graph is a pl_netlist whose
// edges are acknowledges, which the analysis reads as plain marked-graph
// edges (an initial token is a marking of one).

#include "plogic/marked_graph.hpp"

#include <gtest/gtest.h>

#include "plogic/pl_netlist.hpp"

namespace plee::pl {
namespace {

pl_netlist make_graph(std::size_t num_nodes) {
    pl_netlist g;
    for (std::size_t i = 0; i < num_nodes; ++i) g.add_gate(gate_kind::compute);
    return g;
}

// A two-gate ring: a -> b, b -> a.
pl_netlist make_ring2(bool token_ab, bool token_ba) {
    pl_netlist g = make_graph(2);
    g.add_ack_edge(0, 1, token_ab);
    g.add_ack_edge(1, 0, token_ba);
    return g;
}

TEST(MarkedGraph, RingWithOneTokenIsLiveAndSafe) {
    const mg_report r = make_ring2(true, false).verify();
    EXPECT_TRUE(r.well_formed);
    EXPECT_TRUE(r.live);
    EXPECT_TRUE(r.safe);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.violation.empty());
}

TEST(MarkedGraph, TokenFreeRingIsNotLive) {
    const mg_report r = make_ring2(false, false).verify();
    EXPECT_TRUE(r.well_formed);
    EXPECT_FALSE(r.live);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.violation, "token-free directed cycle (no token circulation possible)");
}

TEST(MarkedGraph, DoubleTokenRingIsNotSafe) {
    const mg_report r = make_ring2(true, true).verify();
    EXPECT_TRUE(r.well_formed);
    EXPECT_TRUE(r.live);
    EXPECT_FALSE(r.safe);
    EXPECT_EQ(r.violation, "edge 0 (0->1, m=1) is on no single-token cycle");
}

TEST(MarkedGraph, DanglingEdgeIsNotWellFormed) {
    pl_netlist g = make_graph(3);
    g.add_ack_edge(0, 1, true);
    g.add_ack_edge(1, 0, false);
    g.add_ack_edge(1, 2, true);  // node 2 has no path back: not on any circuit
    const mg_report r = g.verify();
    EXPECT_FALSE(r.well_formed);
    EXPECT_EQ(r.violation, "edge 2 (1->2) lies on no directed cycle");
}

TEST(MarkedGraph, SelfLoopWithTokenIsFine) {
    pl_netlist g = make_graph(1);
    g.add_ack_edge(0, 0, true);
    const mg_report r = g.verify();
    EXPECT_TRUE(r.ok());
}

TEST(MarkedGraph, LongPipelineAlternatingTokens) {
    // 6-stage ring with forward edges (a token on stage 0 only) and backward
    // edges carrying the complementary marking: live and safe.
    pl_netlist g = make_graph(6);
    for (gate_id i = 0; i < 6; ++i) {
        const gate_id j = (i + 1) % 6;
        g.add_ack_edge(i, j, i == 0);
        g.add_ack_edge(j, i, i != 0);
    }
    EXPECT_TRUE(g.verify().ok());
}

TEST(MarkedGraph, ThreeRingWithTwoTokensIsNotSafe) {
    // The only cycle carries two tokens, so both can pile up on the edge
    // into node 0 (occupancy bound = min cycle count = 2): unsafe.
    pl_netlist g = make_graph(3);
    g.add_ack_edge(0, 1, true);
    g.add_ack_edge(1, 2, true);
    g.add_ack_edge(2, 0, false);
    const mg_report r = g.verify();
    EXPECT_TRUE(r.well_formed);
    EXPECT_TRUE(r.live);
    EXPECT_FALSE(r.safe);
    EXPECT_EQ(r.violation, "edge 0 (0->1, m=1) is on no single-token cycle");
}

TEST(MarkedGraph, TwoTokenOuterCycleWithSafeInnerCyclesIsSafe) {
    // The outer cycle 0->1->2->0 carries two tokens, but every edge also
    // lies on a single-token 2-cycle, so per the occupancy theorem no edge
    // ever holds more than one token: the marking is safe.
    pl_netlist g = make_graph(3);
    g.add_ack_edge(0, 1, true);
    g.add_ack_edge(1, 0, false);
    g.add_ack_edge(1, 2, true);
    g.add_ack_edge(2, 1, false);
    g.add_ack_edge(2, 0, false);
    g.add_ack_edge(0, 2, true);
    const mg_report r = g.verify();
    EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace plee::pl
