// Tests for the measurement harness (Section 4's protocol): random stimulus
// generation, delay statistics, and the golden functional cross-check.

#include "sim/measure.hpp"

#include <gtest/gtest.h>

#include "ee/ee_transform.hpp"
#include "plogic/pl_mapper.hpp"
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
    EXPECT_EQ(r.mismatched_waves, 0u);
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
    EXPECT_EQ(r.mismatched_waves, 0u);
    EXPECT_GT(r.stats.ee_hits + r.stats.ee_misses, 0u);
}

TEST(Measure, NullGoldenSkipsComparison) {
    const nl::netlist n = alu_netlist();
    const pl::map_result mapped = pl::map_to_phased_logic(n);
    measure_options opts;
    opts.num_vectors = 5;
    const measure_result r = measure_average_delay(mapped.pl, nullptr, opts);
    EXPECT_EQ(r.mismatched_waves, 0u);
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
