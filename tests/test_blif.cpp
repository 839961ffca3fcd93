// Tests for BLIF import/export: round-trip functional equivalence, cover
// polarity handling, latches, constants and malformed-input diagnostics.

#include "netlist/blif.hpp"

#include <gtest/gtest.h>

#include "bench_circuits/itc99.hpp"
#include "netlist/sync_sim.hpp"
#include "plogic/pl_mapper.hpp"
#include "sim/measure.hpp"
#include "synth/rtl.hpp"

namespace plee::nl {
namespace {

void expect_equivalent(const netlist& a, const netlist& b, std::size_t waves,
                       std::uint64_t seed) {
    ASSERT_EQ(a.inputs().size(), b.inputs().size());
    ASSERT_EQ(a.outputs().size(), b.outputs().size());
    sync_simulator sa(a);
    sync_simulator sb(b);
    for (const auto& v : sim::random_vectors(waves, a.inputs().size(), seed)) {
        EXPECT_EQ(sa.cycle(v), sb.cycle(v));
    }
}

TEST(Blif, ExportMentionsAllSections) {
    syn::module_builder m("x");
    const syn::bus a = m.input_bus("a", 2);
    const syn::bus q = m.new_register("q", 2, 1);
    m.connect_register(q, m.bw_xor(q, a));
    m.output_bus("y", q);
    const netlist n = m.build();

    const std::string text = to_blif(n, "unit");
    EXPECT_NE(text.find(".model unit"), std::string::npos);
    EXPECT_NE(text.find(".inputs a[0] a[1]"), std::string::npos);
    EXPECT_NE(text.find(".outputs y[0] y[1]"), std::string::npos);
    EXPECT_NE(text.find(".latch"), std::string::npos);
    EXPECT_NE(text.find(".names"), std::string::npos);
    EXPECT_NE(text.find(".end"), std::string::npos);
}

TEST(Blif, RoundTripCombinational) {
    syn::module_builder m("rt");
    const syn::bus a = m.input_bus("a", 4);
    const syn::bus b = m.input_bus("b", 4);
    m.output_bus("s", m.add(a, b).sum);
    m.output("lt", m.ult(a, b));
    const netlist n = m.build();

    const netlist back = from_blif_string(to_blif(n));
    expect_equivalent(n, back, 64, 5);
}

TEST(Blif, RoundTripSequential) {
    syn::module_builder m("seq");
    const syn::expr_id en = m.input("en");
    const syn::bus q = m.new_register("q", 5, 9);
    m.connect_register(q, m.mux2(en, m.inc(q), q));
    m.output_bus("q", q);
    m.output("top", m.eq_const(q, 31));
    const netlist n = m.build();

    const netlist back = from_blif_string(to_blif(n));
    ASSERT_EQ(back.dffs().size(), 5u);
    expect_equivalent(n, back, 80, 17);
}

TEST(Blif, RoundTripBenchmark) {
    const netlist n = bench::build_benchmark("b03");
    const netlist back = from_blif_string(to_blif(n, "b03"));
    expect_equivalent(n, back, 60, 23);
}

TEST(Blif, ParsesOffSetCover) {
    // NOR expressed through its OFF-set: output 0 when any input is 1.
    const netlist n = from_blif_string(
        ".model offset\n"
        ".inputs a b\n"
        ".outputs y\n"
        ".names a b y\n"
        "1- 0\n"
        "-1 0\n"
        ".end\n");
    sync_simulator s(n);
    EXPECT_EQ(s.cycle({false, false}), std::vector<bool>{true});
    EXPECT_EQ(s.cycle({true, false}), std::vector<bool>{false});
    EXPECT_EQ(s.cycle({false, true}), std::vector<bool>{false});
    EXPECT_EQ(s.cycle({true, true}), std::vector<bool>{false});
}

TEST(Blif, ParsesConstantsAndComments) {
    const netlist n = from_blif_string(
        "# a constant-one and a constant-zero\n"
        ".model konst\n"
        ".inputs a\n"
        ".outputs one zero\n"
        ".names one   # ON row follows\n"
        "1\n"
        ".names zero\n"
        ".end\n");
    sync_simulator s(n);
    const auto out = s.cycle({false});
    EXPECT_TRUE(out[0]);
    EXPECT_FALSE(out[1]);
}

TEST(Blif, ParsesLatchInitialValue) {
    const netlist n = from_blif_string(
        ".model l\n"
        ".inputs d\n"
        ".outputs q\n"
        ".latch d q re clk 1\n"
        ".end\n");
    ASSERT_EQ(n.dffs().size(), 1u);
    sync_simulator s(n);
    EXPECT_EQ(s.cycle({false}), std::vector<bool>{true});   // init 1
    EXPECT_EQ(s.cycle({false}), std::vector<bool>{false});  // latched d
}

TEST(Blif, OutOfOrderNamesBlocksResolve) {
    const netlist n = from_blif_string(
        ".model ooo\n"
        ".inputs a b\n"
        ".outputs y\n"
        ".names t1 t2 y\n"
        "11 1\n"
        ".names a b t1\n"
        "11 1\n"
        ".names a b t2\n"
        "1- 1\n"
        "-1 1\n"
        ".end\n");
    sync_simulator s(n);
    EXPECT_EQ(s.cycle({true, true}), std::vector<bool>{true});
    EXPECT_EQ(s.cycle({true, false}), std::vector<bool>{false});
}

TEST(Blif, ContinuationLines) {
    const netlist n = from_blif_string(
        ".model cont\n"
        ".inputs \\\na b\n"
        ".outputs y\n"
        ".names a b y\n"
        "11 1\n"
        ".end\n");
    EXPECT_EQ(n.inputs().size(), 2u);
}

TEST(Blif, DiagnosticsCarryLineNumbers) {
    EXPECT_THROW(from_blif_string("no model here\n"), std::runtime_error);
    EXPECT_THROW(from_blif_string(".model m\n.inputs a\n.outputs y\n"
                                  ".names a y\n11 1\n.end\n"),
                 std::runtime_error);  // row width mismatch
    EXPECT_THROW(from_blif_string(".model m\n.inputs a\n.outputs y\n.end\n"),
                 std::runtime_error);  // undriven output
    EXPECT_THROW(from_blif_string(".model m\n.inputs a\n.outputs y\n"
                                  ".names x y\n1 1\n"
                                  ".names y x\n1 1\n.end\n"),
                 std::runtime_error);  // combinational cycle
}

TEST(Blif, RoundTripThroughPlFlowStillMatchesGolden) {
    // The imported netlist must survive the whole PL+EE pipeline.
    const netlist original = bench::build_benchmark("b08");
    const netlist imported = from_blif_string(to_blif(original, "b08"));
    // measure_average_delay cross-checks against the golden model per wave.
    const auto mapped = pl::map_to_phased_logic(imported);
    sim::measure_options opts;
    opts.num_vectors = 30;
    const auto r = sim::measure_average_delay(mapped.pl, &imported, opts);
}

}  // namespace
}  // namespace plee::nl
