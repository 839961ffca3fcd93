// Tests for the LEDR-level structural oracle: the physical dual-rail view
// of a PL netlist must agree wave-for-wave with the synchronous golden model
// and with the token-level event simulator, for ANY gate scan order — the
// delay-insensitivity property the design style is named for.

#include <gtest/gtest.h>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "ledr_oracle.hpp"
#include "netlist/sync_sim.hpp"
#include "plogic/pl_mapper.hpp"
#include "sim/measure.hpp"
#include "synth/rtl.hpp"

namespace plee::pl {
namespace {

using testing::ledr_oracle;

nl::netlist small_alu() {
    syn::module_builder m("alu");
    const syn::bus a = m.input_bus("a", 4);
    const syn::bus b = m.input_bus("b", 4);
    const syn::expr_id sel = m.input("sel");
    m.output_bus("y", m.mux2(sel, m.add(a, b).sum, m.bw_xor(a, b)));
    return m.build();
}

nl::netlist small_counter() {
    syn::module_builder m("cnt");
    const syn::expr_id en = m.input("en");
    const syn::bus q = m.new_register("q", 3, 5);
    m.connect_register(q, m.mux2(en, m.inc(q), q));
    m.output_bus("q", q);
    return m.build();
}

TEST(LedrSim, CombinationalMatchesGolden) {
    const nl::netlist n = small_alu();
    const map_result mapped = map_to_phased_logic(n);
    const auto vectors = sim::random_vectors(40, n.inputs().size(), 11);

    ledr_oracle sim(mapped.pl);
    const auto waves = sim.run(vectors);

    nl::sync_simulator gold(n);
    for (std::size_t w = 0; w < waves.size(); ++w) {
        EXPECT_EQ(waves[w], gold.cycle(vectors[w])) << "wave " << w;
    }
}

TEST(LedrSim, SequentialMatchesGolden) {
    const nl::netlist n = small_counter();
    const map_result mapped = map_to_phased_logic(n);
    const auto vectors = sim::random_vectors(50, 1, 23);

    ledr_oracle sim(mapped.pl);
    const auto waves = sim.run(vectors);

    nl::sync_simulator gold(n);
    for (std::size_t w = 0; w < waves.size(); ++w) {
        EXPECT_EQ(waves[w], gold.cycle(vectors[w])) << "wave " << w;
    }
}

TEST(LedrSim, AgreesWithTokenSimulatorUnderEe) {
    const nl::netlist n = small_alu();
    map_result mapped = map_to_phased_logic(n);
    ee::apply_early_evaluation(mapped.pl);

    const auto vectors = sim::random_vectors(30, n.inputs().size(), 5);
    ledr_oracle structural(mapped.pl);
    const auto ledr_waves = structural.run(vectors);

    sim::pl_simulator token(mapped.pl);
    const auto token_waves = token.run(vectors);

    for (std::size_t w = 0; w < vectors.size(); ++w) {
        EXPECT_EQ(ledr_waves[w], token_waves[w].outputs) << "wave " << w;
    }
}

// The headline property: the outputs are independent of the gate firing
// order.  Any scan permutation must produce identical output words.
class LedrScanOrder : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LedrScanOrder, DelayInsensitivity) {
    const nl::netlist n = small_counter();
    const map_result mapped = map_to_phased_logic(n);
    const auto vectors = sim::random_vectors(25, 1, 99);

    ledr_oracle reference(mapped.pl, 0);
    const auto expected = reference.run(vectors);

    ledr_oracle shuffled(mapped.pl, GetParam());
    EXPECT_EQ(shuffled.run(vectors), expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LedrScanOrder,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 42u));

TEST(LedrSim, EveryGateFiresOncePerWave) {
    const nl::netlist n = small_counter();
    const map_result mapped = map_to_phased_logic(n);
    const auto vectors = sim::random_vectors(16, 1, 7);
    ledr_oracle sim(mapped.pl);
    sim.run(vectors);
    // compute + through gates fire (at least) once per wave; sinks exactly
    // once; allowance for the +/-1 drain at the measurement horizon.
    EXPECT_GE(sim.firings(), vectors.size() * mapped.pl.num_pl_gates());
}

TEST(LedrSim, BenchmarkEquivalenceThroughEe) {
    // A mid-size benchmark through the full pipeline at the LEDR level.
    const nl::netlist n = bench::build_benchmark("b10");
    map_result mapped = map_to_phased_logic(n);
    ee::apply_early_evaluation(mapped.pl);

    const auto vectors = sim::random_vectors(20, n.inputs().size(), 31);
    ledr_oracle sim(mapped.pl);
    const auto waves = sim.run(vectors);

    nl::sync_simulator gold(n);
    for (std::size_t w = 0; w < waves.size(); ++w) {
        EXPECT_EQ(waves[w], gold.cycle(vectors[w])) << "wave " << w;
    }
}

TEST(LedrSim, VectorWidthChecked) {
    const map_result mapped = map_to_phased_logic(small_counter());
    ledr_oracle sim(mapped.pl);
    EXPECT_THROW(sim.run({{true, false}}), std::invalid_argument);
}

}  // namespace
}  // namespace plee::pl
