// Unit tests for the synchronous netlist container: structure, validation
// and topological analysis.

#include "netlist/netlist.hpp"

#include <gtest/gtest.h>

namespace plee::nl {
namespace {

bf::truth_table and2() {
    return bf::truth_table::variable(2, 0) & bf::truth_table::variable(2, 1);
}
bf::truth_table xor2() {
    return bf::truth_table::variable(2, 0) ^ bf::truth_table::variable(2, 1);
}

TEST(Netlist, BuildSmallCombinational) {
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id b = n.add_input("b");
    const cell_id g = n.add_lut(and2(), {a, b});
    n.add_output("y", g);
    EXPECT_EQ(n.num_cells(), 4u);
    EXPECT_EQ(n.num_luts(), 1u);
    EXPECT_EQ(n.num_pl_mappable(), 1u);
    EXPECT_NO_THROW(n.validate());
}

TEST(Netlist, LutArityMustMatchFanins) {
    netlist n;
    const cell_id a = n.add_input("a");
    EXPECT_THROW(n.add_lut(and2(), {a}), std::invalid_argument);
    EXPECT_THROW(n.add_lut(bf::truth_table(0), {}), std::invalid_argument);
}

TEST(Netlist, ValidateCatchesUnconnectedDff) {
    netlist n;
    n.add_input("a");
    const cell_id d = n.add_dff(k_invalid_cell, false, "r");
    n.add_output("q", d);
    EXPECT_THROW(n.validate(), std::logic_error);
}

TEST(Netlist, ValidateCatchesDuplicatePortNames) {
    netlist n;
    const cell_id a = n.add_input("x");
    n.add_output("x", a);
    EXPECT_THROW(n.validate(), std::logic_error);
}

TEST(Netlist, ValidateCatchesOutputUsedAsFanin) {
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id y = n.add_output("y", a);
    const cell_id b = n.add_input("b");
    n.add_lut(and2(), {y, b});
    EXPECT_THROW(n.validate(), std::logic_error);
}

TEST(Netlist, DffBreaksCombinationalCycles) {
    // q = dff(q xor a): a legal sequential loop.
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id q = n.add_dff(k_invalid_cell, false, "q");
    const cell_id x = n.add_lut(xor2(), {q, a});
    n.set_dff_input(q, x);
    n.add_output("y", q);
    EXPECT_NO_THROW(n.validate());
    EXPECT_EQ(n.dffs().size(), 1u);
}

TEST(Netlist, CombinationalCycleDetected) {
    netlist n;
    const cell_id a = n.add_input("a");
    // Build two LUTs then rewire one to form a loop via the other.
    const cell_id g1 = n.add_lut(and2(), {a, a});
    const cell_id g2 = n.add_lut(and2(), {g1, a});
    (void)g2;
    // There is no public rewire for LUTs (by design); instead check that a
    // DFF-free cycle cannot be expressed accidentally: the only legal cycle
    // construct is set_dff_input, which topo_order tolerates.
    EXPECT_NO_THROW(n.topo_order());
}

TEST(Netlist, TopoOrderRespectsDependencies) {
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id b = n.add_input("b");
    const cell_id g1 = n.add_lut(and2(), {a, b});
    const cell_id g2 = n.add_lut(xor2(), {g1, a});
    const cell_id g3 = n.add_lut(xor2(), {g2, g1});
    n.add_output("y", g3);

    const std::vector<cell_id> order = n.topo_order();
    auto pos = [&](cell_id id) {
        for (std::size_t i = 0; i < order.size(); ++i) {
            if (order[i] == id) return i;
        }
        return order.size();
    };
    EXPECT_LT(pos(a), pos(g1));
    EXPECT_LT(pos(g1), pos(g2));
    EXPECT_LT(pos(g2), pos(g3));
    EXPECT_EQ(order.size(), n.num_cells());
}

TEST(Netlist, FaninLimitQuery) {
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id b = n.add_input("b");
    const cell_id c = n.add_input("c");
    const cell_id d = n.add_input("d");
    const cell_id e = n.add_input("e");
    const bf::truth_table or5 = bf::truth_table::from_function(
        5, [](std::uint32_t m) { return m != 0; });
    n.add_lut(or5, {a, b, c, d, e});
    EXPECT_TRUE(n.respects_fanin_limit(6));
    EXPECT_FALSE(n.respects_fanin_limit(4));
}

TEST(Netlist, DotExportMentionsEveryCell) {
    netlist n;
    const cell_id a = n.add_input("a");
    const cell_id g = n.add_lut(~bf::truth_table::variable(1, 0), {a});
    n.add_output("y", g);
    const std::string dot = n.to_dot("g");
    EXPECT_NE(dot.find("IN a"), std::string::npos);
    EXPECT_NE(dot.find("LUT1"), std::string::npos);
    EXPECT_NE(dot.find("OUT y"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Netlist, ConstantCells) {
    netlist n;
    const cell_id one = n.add_constant(true);
    n.add_output("y", one);
    EXPECT_NO_THROW(n.validate());
    EXPECT_EQ(n.at(one).kind, cell_kind::constant);
    EXPECT_TRUE(n.at(one).const_value);
}

}  // namespace
}  // namespace plee::nl
