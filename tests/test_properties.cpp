// Cross-cutting property tests over randomly generated circuits: for any
// LUT4+DFF netlist, the PL mapping must be live and safe, event simulation
// (with and without Early Evaluation, pipelined or not) must match the
// synchronous golden model wave-for-wave, and EE must never lose to the
// no-EE circuit by more than the documented Muller-C penalty.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "ee/ee_transform.hpp"
#include "netlist/sync_sim.hpp"
#include "netlist/transform.hpp"
#include "plogic/pl_mapper.hpp"
#include "sim/measure.hpp"

namespace plee {
namespace {

/// Generates a random LUT4+DFF netlist with `num_inputs` PIs, `num_luts`
/// LUTs, `num_dffs` registers and a handful of outputs.
nl::netlist random_netlist(std::uint64_t seed, int num_inputs, int num_luts,
                           int num_dffs) {
    std::mt19937_64 rng(seed);
    nl::netlist n;
    std::vector<nl::cell_id> pool;
    for (int i = 0; i < num_inputs; ++i) {
        pool.push_back(n.add_input("i" + std::to_string(i)));
    }
    std::vector<nl::cell_id> dffs;
    for (int i = 0; i < num_dffs; ++i) {
        dffs.push_back(n.add_dff(nl::k_invalid_cell, rng() & 1, "r" + std::to_string(i)));
        pool.push_back(dffs.back());
    }
    for (int i = 0; i < num_luts; ++i) {
        const int arity = 2 + static_cast<int>(rng() % 3);  // 2..4
        std::vector<nl::cell_id> fanins;
        for (int k = 0; k < arity; ++k) {
            nl::cell_id c;
            do {
                c = pool[rng() % pool.size()];
            } while (std::find(fanins.begin(), fanins.end(), c) != fanins.end());
            fanins.push_back(c);
        }
        // A random function with full support (retry until no vacuous pins).
        bf::truth_table fn(arity);
        do {
            const std::uint64_t mask = (1ull << (1u << arity)) - 1;
            fn = bf::truth_table(arity, rng() & mask);
        } while (fn.support_size() != arity);
        pool.push_back(n.add_lut(fn, std::move(fanins)));
    }
    for (int i = 0; i < num_dffs; ++i) {
        n.set_dff_input(dffs[static_cast<std::size_t>(i)], pool[rng() % pool.size()]);
    }
    // Outputs: the last few pool entries (always at least one).
    const int num_outputs = 1 + static_cast<int>(rng() % 4);
    for (int i = 0; i < num_outputs; ++i) {
        n.add_output("o" + std::to_string(i), pool[pool.size() - 1 - static_cast<std::size_t>(i)]);
    }
    n.validate();
    return n;
}

class RandomCircuit : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomCircuit, MappingIsAlwaysLiveAndSafe) {
    const nl::netlist n = random_netlist(GetParam(), 5, 24, 4);
    const pl::map_result r = pl::map_to_phased_logic(n);
    const pl::mg_report report = pl::verify_marked_graph(r.pl);
    EXPECT_TRUE(report.well_formed) << report.violation;
    EXPECT_TRUE(report.live) << report.violation;
    EXPECT_TRUE(report.safe) << report.violation;
}

TEST_P(RandomCircuit, ConservativeAndSharedMappingsAgreeFunctionally) {
    const nl::netlist n = random_netlist(GetParam(), 4, 18, 3);
    pl::map_options shared;
    shared.share_feedbacks = true;
    pl::map_options conservative;
    conservative.share_feedbacks = false;

    const auto vectors = sim::random_vectors(30, n.inputs().size(), GetParam());
    const pl::map_result m1 = pl::map_to_phased_logic(n, shared);
    const pl::map_result m2 = pl::map_to_phased_logic(n, conservative);
    sim::pl_simulator s1(m1.pl);
    sim::pl_simulator s2(m2.pl);
    const auto w1 = s1.run(vectors);
    const auto w2 = s2.run(vectors);
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        EXPECT_EQ(w1[w].outputs, w2[w].outputs) << "wave " << w;
    }
}

TEST_P(RandomCircuit, EeIsFunctionallyTransparent) {
    const nl::netlist n = random_netlist(GetParam() * 31 + 7, 5, 30, 5);
    pl::map_result base = pl::map_to_phased_logic(n);
    pl::map_result with_ee = pl::map_to_phased_logic(n);
    ee::apply_early_evaluation(with_ee.pl);
    EXPECT_TRUE(pl::verify_marked_graph(with_ee.pl).ok());

    const auto vectors = sim::random_vectors(40, n.inputs().size(), GetParam());
    sim::pl_simulator s_base(base.pl);
    sim::pl_simulator s_ee(with_ee.pl);
    const auto w_base = s_base.run(vectors);
    const auto w_ee = s_ee.run(vectors);

    nl::sync_simulator gold(n);
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        const auto expected = gold.cycle(vectors[w]);
        EXPECT_EQ(w_base[w].outputs, expected) << "wave " << w;
        EXPECT_EQ(w_ee[w].outputs, expected) << "wave " << w;
    }
}

TEST_P(RandomCircuit, EeNeverLosesMoreThanThePenaltyBound) {
    // Within one wave, the EE circuit's critical path can exceed the base
    // circuit's by at most the miss penalty per gate on the path — bounded
    // loosely by penalty * (pl gates).  Because the non-pipelined protocol
    // releases wave k+1 at wave k's stability, per-wave delays couple across
    // waves; the sound invariant is on the cumulative makespan.
    const nl::netlist n = random_netlist(GetParam() * 17 + 3, 4, 20, 3);
    pl::map_result base = pl::map_to_phased_logic(n);
    pl::map_result with_ee = pl::map_to_phased_logic(n);
    ee::apply_early_evaluation(with_ee.pl);

    const auto vectors = sim::random_vectors(25, n.inputs().size(), GetParam());
    sim::sim_options opts;
    sim::pl_simulator s_base(base.pl, opts);
    sim::pl_simulator s_ee(with_ee.pl, opts);
    const auto w_base = s_base.run(vectors);
    const auto w_ee = s_ee.run(vectors);

    const double per_wave_bound =
        opts.delays.d_ee_penalty * static_cast<double>(base.pl.num_pl_gates());
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        EXPECT_LE(w_ee[w].output_stable,
                  w_base[w].output_stable + per_wave_bound * static_cast<double>(w + 1))
            << "wave " << w;
    }
}

TEST_P(RandomCircuit, PipelinedModeMatchesFunctionally) {
    const nl::netlist n = random_netlist(GetParam() * 101 + 13, 4, 16, 4);
    const pl::map_result mapped = pl::map_to_phased_logic(n);

    sim::sim_options piped;
    piped.non_pipelined = false;
    sim::pl_simulator sim(mapped.pl, piped);
    const auto vectors = sim::random_vectors(30, n.inputs().size(), GetParam());
    const auto waves = sim.run(vectors);

    nl::sync_simulator gold(n);
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        EXPECT_EQ(waves[w].outputs, gold.cycle(vectors[w])) << "wave " << w;
    }
}

TEST_P(RandomCircuit, CleanupPreservesBehaviour) {
    const nl::netlist n = random_netlist(GetParam() * 7 + 1, 5, 22, 4);
    const nl::cleanup_result cleaned = nl::cleanup(n);

    nl::sync_simulator ref(n);
    nl::sync_simulator cln(cleaned.nl);
    const auto vectors = sim::random_vectors(40, n.inputs().size(), GetParam());
    for (const auto& v : vectors) {
        EXPECT_EQ(ref.cycle(v), cln.cycle(v));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCircuit,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u,
                                           10u, 11u, 12u, 13u, 14u, 15u, 16u));

}  // namespace
}  // namespace plee
