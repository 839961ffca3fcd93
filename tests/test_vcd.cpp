// Tests for the traced run and VCD export.

#include "sim/vcd.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "plogic/pl_mapper.hpp"
#include "sim/measure.hpp"
#include "synth/rtl.hpp"

namespace plee::sim {
namespace {

nl::netlist xor_chain() {
    syn::module_builder m("xc");
    const syn::expr_id a = m.input("a");
    const syn::expr_id b = m.input("b");
    const syn::expr_id c = m.input("c");
    m.output("y", m.arena().xor_(m.arena().xor_(a, b), c));
    return m.build();
}

TEST(Vcd, TraceRecordsDataTokens) {
    const auto mapped = pl::map_to_phased_logic(xor_chain());
    pl_simulator sim(mapped.pl);
    std::vector<trace_event> trace;
    sim.run(random_vectors(4, 3, 1), trace);
    EXPECT_FALSE(trace.empty());
    for (const trace_event& ev : trace) {
        EXPECT_EQ(mapped.pl.edge(ev.edge).kind, pl::edge_kind::data);
        EXPECT_GE(ev.time, 0.0);
    }
}

TEST(Vcd, DocumentIsWellFormed) {
    const auto mapped = pl::map_to_phased_logic(xor_chain());
    pl_simulator sim(mapped.pl);
    std::vector<trace_event> trace;
    sim.run(random_vectors(6, 3, 9), trace);

    const std::string vcd = to_vcd(mapped.pl, trace);
    EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
    EXPECT_NE(vcd.find("$var wire 1"), std::string::npos);
    EXPECT_NE(vcd.find("$enddefinitions"), std::string::npos);
    EXPECT_NE(vcd.find("$dumpvars"), std::string::npos);
    EXPECT_NE(vcd.find("\n#"), std::string::npos);  // at least one timestamp
    // Input port names appear as signals.
    EXPECT_NE(vcd.find(" a $end"), std::string::npos);
}

TEST(Vcd, TimestampsAreMonotone) {
    const auto mapped = pl::map_to_phased_logic(xor_chain());
    pl_simulator sim(mapped.pl);
    std::vector<trace_event> trace;
    sim.run(random_vectors(8, 3, 4), trace);

    const std::string vcd = to_vcd(mapped.pl, trace);
    long long prev = -1;
    std::istringstream is(vcd);
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] != '#') continue;
        const long long t = std::stoll(line.substr(1));
        EXPECT_GE(t, prev);
        prev = t;
    }
    EXPECT_GE(prev, 0);
}

}  // namespace
}  // namespace plee::sim
