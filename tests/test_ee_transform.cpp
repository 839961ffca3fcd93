// Tests for the Early Evaluation netlist transform: trigger gates are
// attached where profitable, pairing metadata is consistent, and the marked
// graph stays live and safe (the Section 3 requirement).

#include "ee/ee_transform.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "plogic/pl_mapper.hpp"
#include "rt/errors.hpp"
#include "synth/rtl.hpp"

namespace plee::ee {
namespace {

/// An 8-bit ripple adder over registered operands: the carry chain gives a
/// deep arrival profile, the classic EE target.
nl::netlist ripple_adder() {
    syn::module_builder m("adder");
    const syn::bus a = m.input_bus("a", 8);
    const syn::bus b = m.input_bus("b", 8);
    const auto r = m.add(a, b);
    m.output_bus("sum", r.sum);
    m.output("cout", r.carry);
    return m.build();
}

TEST(EeTransform, AddsTriggersToAdder) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    const std::size_t gates_before = mapped.pl.num_pl_gates();

    const ee_stats stats = apply_early_evaluation(mapped.pl);
    EXPECT_GT(stats.triggers_added, 0u);
    EXPECT_EQ(stats.triggers_added, mapped.pl.num_trigger_gates());
    EXPECT_EQ(stats.applied.size(), stats.triggers_added);
    // The paper's "PL Gates" count excludes the EE gates.
    EXPECT_EQ(mapped.pl.num_pl_gates(), gates_before);
}

TEST(EeTransform, GraphStaysLiveAndSafe) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    // The mapper's passed check survives every attach_trigger, so the
    // pass's closing verify() reads it; the full analysis must agree.
    ASSERT_TRUE(mapped.pl.verified());
    const std::size_t mapped_edges = mapped.pl.num_edges();
    apply_early_evaluation(mapped.pl);
    ASSERT_GT(mapped.pl.num_edges(), mapped_edges);
    EXPECT_TRUE(mapped.pl.verified());
    const pl::mg_report report = pl::verify_marked_graph(mapped.pl);
    EXPECT_TRUE(report.well_formed);
    EXPECT_TRUE(report.live);
    EXPECT_TRUE(report.safe);
}

TEST(EeTransform, CancelledTokenStopsTheSearchBeforeAnyMutation) {
    cancel_token token;
    token.cancel();
    for (const unsigned threads : {1u, 4u}) {
        pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
        const std::size_t gates = mapped.pl.num_gates();
        const std::size_t edges = mapped.pl.num_edges();
        ee_options options;
        options.num_threads = threads;
        try {
            apply_early_evaluation(mapped.pl, options,
                                   {.label = "adder", .cancel = &token});
            FAIL() << "a cancelled search completed at " << threads << " threads";
        } catch (const job_timeout& e) {
            EXPECT_NE(std::string(e.what()).find("ee.search[adder]"),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(mapped.pl.num_trigger_gates(), 0u) << threads;
        EXPECT_EQ(mapped.pl.num_gates(), gates) << threads;
        EXPECT_EQ(mapped.pl.num_edges(), edges) << threads;
        EXPECT_TRUE(mapped.pl.verified()) << threads;
    }
}

TEST(EeTransform, DeadNetlistThrowsBeforeAnyTrigger) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    // Two token-free acknowledges between two compute gates: a token-free
    // 2-cycle, so the netlist is not live.
    pl::gate_id a = 0;
    while (mapped.pl.gate(a).kind != pl::gate_kind::compute) ++a;
    pl::gate_id b = a + 1;
    while (mapped.pl.gate(b).kind != pl::gate_kind::compute) ++b;
    mapped.pl.add_ack_edge(a, b, false);
    mapped.pl.add_ack_edge(b, a, false);
    const std::size_t gates = mapped.pl.num_gates();
    const std::size_t edges = mapped.pl.num_edges();
    EXPECT_THROW(apply_early_evaluation(mapped.pl), std::logic_error);
    EXPECT_EQ(mapped.pl.num_gates(), gates);
    EXPECT_EQ(mapped.pl.num_edges(), edges);
}

TEST(EeTransform, NetlistWithoutAPassedCheckGetsTheFullVerify) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    // Rewriting a function is a mutation: it drops the mapper's mark.
    pl::gate_id g = 0;
    while (mapped.pl.gate(g).kind != pl::gate_kind::compute) ++g;
    mapped.pl.set_function(g, mapped.pl.gate(g).function);
    ASSERT_FALSE(mapped.pl.verified());
    const ee_stats stats = apply_early_evaluation(mapped.pl);
    EXPECT_GT(stats.triggers_added, 0u);
    EXPECT_TRUE(mapped.pl.verified());
}

TEST(EeTransform, PairingMetadataConsistent) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    const ee_stats stats = apply_early_evaluation(mapped.pl);
    for (const applied_trigger& at : stats.applied) {
        const pl::pl_gate& master = mapped.pl.gate(at.master);
        const pl::pl_gate& trig = mapped.pl.gate(at.trigger);
        EXPECT_EQ(master.trigger, at.trigger);
        EXPECT_EQ(trig.master, at.master);
        EXPECT_EQ(trig.kind, pl::gate_kind::trigger);
        EXPECT_NE(master.efire_in, pl::k_invalid_edge);
        // The efire edge runs trigger -> master.
        const pl::pl_edge& efire = mapped.pl.edge(master.efire_in);
        EXPECT_EQ(efire.from, at.trigger);
        EXPECT_EQ(efire.to, at.master);
        // Trigger taps exactly the support pins of the master.
        const auto trig_pins = mapped.pl.data_in(at.trigger);
        const auto master_pins = mapped.pl.data_in(at.master);
        EXPECT_EQ(trig_pins.size(),
                  static_cast<std::size_t>(std::popcount(at.candidate.support)));
        EXPECT_EQ(trig.function, at.candidate.function);
        // Tapped producers match the master's pins.
        std::size_t t = 0;
        for (std::size_t pin = 0; pin < master_pins.size(); ++pin) {
            if (!(at.candidate.support & (1u << pin))) continue;
            EXPECT_EQ(mapped.pl.edge(trig_pins[t]).from,
                      mapped.pl.edge(master_pins[pin]).from);
            ++t;
        }
    }
}

TEST(EeTransform, ThresholdReducesTriggerCount) {
    // "Thresholding the cost function allows for a tradeoff in area versus
    // delay": monotone decrease in EE gates with rising threshold.
    std::size_t prev = std::numeric_limits<std::size_t>::max();
    for (double threshold : {0.0, 100.0, 300.0, 1e9}) {
        pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
        ee_options opts;
        opts.search.cost_threshold = threshold;
        const ee_stats stats = apply_early_evaluation(mapped.pl, opts);
        EXPECT_LE(stats.triggers_added, prev);
        prev = stats.triggers_added;
    }
    EXPECT_EQ(prev, 0u);  // an absurd threshold suppresses all EE
}

TEST(EeTransform, CubeListMethodAlsoWorks) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    ee_options opts;
    opts.search.method = trigger_method::cube_list;
    const ee_stats stats = apply_early_evaluation(mapped.pl, opts);
    EXPECT_GT(stats.triggers_added, 0u);
    EXPECT_TRUE(pl::verify_marked_graph(mapped.pl).ok());
}

TEST(EeTransform, NoTriggersWithoutArrivalSkew) {
    // Single-level circuit: every master input arrives at depth 0, so no
    // candidate passes the Tmax < Mmax test and no EE gate is added.
    syn::module_builder m("flat");
    auto& a = m.arena();
    const syn::expr_id x = m.input("x");
    const syn::expr_id y = m.input("y");
    const syn::expr_id z = m.input("z");
    m.output("f", a.or_(a.and_(x, y), z));
    pl::map_result mapped = pl::map_to_phased_logic(m.build());
    const ee_stats stats = apply_early_evaluation(mapped.pl);
    EXPECT_EQ(stats.triggers_added, 0u);
    EXPECT_GT(stats.masters_considered, 0u);
}

TEST(EeTransform, AppliedCandidatesRespectPolicy) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    ee_options opts;
    opts.search.cost_threshold = 50.0;
    const ee_stats stats = apply_early_evaluation(mapped.pl, opts);
    for (const applied_trigger& at : stats.applied) {
        EXPECT_GT(at.candidate.cost, 50.0);
        EXPECT_LT(at.candidate.trigger_max_arrival, at.candidate.master_max_arrival);
        EXPECT_GT(at.candidate.covered_minterms, 0);
    }
}

/// Gate-for-gate, edge-for-edge structural equality of two PL netlists.
void expect_identical_netlists(const pl::pl_netlist& a, const pl::pl_netlist& b) {
    ASSERT_EQ(a.num_gates(), b.num_gates());
    ASSERT_EQ(a.num_edges(), b.num_edges());
    const auto list = [](std::span<const pl::edge_id> s) {
        return std::vector<pl::edge_id>(s.begin(), s.end());
    };
    for (pl::gate_id g = 0; g < a.num_gates(); ++g) {
        const pl::pl_gate& ga = a.gate(g);
        const pl::pl_gate& gb = b.gate(g);
        ASSERT_EQ(ga.kind, gb.kind) << "gate " << g;
        ASSERT_EQ(a.name(g), b.name(g)) << "gate " << g;
        ASSERT_EQ(ga.function, gb.function) << "gate " << g;
        ASSERT_EQ(ga.trigger, gb.trigger) << "gate " << g;
        ASSERT_EQ(ga.master, gb.master) << "gate " << g;
        ASSERT_EQ(ga.efire_in, gb.efire_in) << "gate " << g;
        ASSERT_EQ(ga.trigger_support, gb.trigger_support) << "gate " << g;
        ASSERT_EQ(list(a.in_edges(g)), list(b.in_edges(g))) << "gate " << g;
        ASSERT_EQ(list(a.out_edges(g)), list(b.out_edges(g))) << "gate " << g;
        ASSERT_EQ(list(a.data_in(g)), list(b.data_in(g))) << "gate " << g;
    }
    for (pl::edge_id e = 0; e < a.num_edges(); ++e) {
        const pl::pl_edge& ea = a.edge(e);
        const pl::pl_edge& eb = b.edge(e);
        ASSERT_EQ(ea.from, eb.from) << "edge " << e;
        ASSERT_EQ(ea.to, eb.to) << "edge " << e;
        ASSERT_EQ(ea.kind, eb.kind) << "edge " << e;
        ASSERT_EQ(ea.to_pin, eb.to_pin) << "edge " << e;
        ASSERT_EQ(ea.init_token, eb.init_token) << "edge " << e;
        ASSERT_EQ(ea.init_value, eb.init_value) << "edge " << e;
    }
}

TEST(EeTransform, ParallelPassIsBitIdenticalToSequential) {
    // The batched thread-parallel search must be a pure speedup: identical
    // triggers, identical netlist, identical stats — on real circuits.
    for (const char* id : {"b05", "b07", "b10"}) {
        const nl::netlist n = bench::build_benchmark(id);

        pl::map_result seq = pl::map_to_phased_logic(n);
        ee_options seq_opts;
        seq_opts.num_threads = 1;
        const ee_stats seq_stats = apply_early_evaluation(seq.pl, seq_opts);

        for (unsigned threads : {2u, 4u, 7u}) {
            pl::map_result par = pl::map_to_phased_logic(n);
            ee_options par_opts;
            par_opts.num_threads = threads;
            const ee_stats par_stats = apply_early_evaluation(par.pl, par_opts);

            EXPECT_EQ(par_stats.masters_considered, seq_stats.masters_considered)
                << id << " threads=" << threads;
            ASSERT_EQ(par_stats.triggers_added, seq_stats.triggers_added)
                << id << " threads=" << threads;
            for (std::size_t i = 0; i < seq_stats.applied.size(); ++i) {
                ASSERT_EQ(par_stats.applied[i].master, seq_stats.applied[i].master);
                ASSERT_EQ(par_stats.applied[i].trigger, seq_stats.applied[i].trigger);
                ASSERT_EQ(par_stats.applied[i].candidate.support,
                          seq_stats.applied[i].candidate.support);
                ASSERT_EQ(par_stats.applied[i].candidate.function,
                          seq_stats.applied[i].candidate.function);
                ASSERT_EQ(par_stats.applied[i].candidate.cost,
                          seq_stats.applied[i].candidate.cost);
            }
            expect_identical_netlists(par.pl, seq.pl);
        }
    }
}

TEST(EeTransform, DefaultThreadCountMatchesSequential) {
    // num_threads = 0 (auto) must still be bit-identical.
    const nl::netlist n = bench::build_benchmark("b08");
    pl::map_result seq = pl::map_to_phased_logic(n);
    ee_options seq_opts;
    seq_opts.num_threads = 1;
    apply_early_evaluation(seq.pl, seq_opts);

    pl::map_result autop = pl::map_to_phased_logic(n);
    apply_early_evaluation(autop.pl);  // defaults: auto thread count
    expect_identical_netlists(autop.pl, seq.pl);
}

TEST(EeTransform, IdempotencePerMasterIsEnforced) {
    pl::map_result mapped = pl::map_to_phased_logic(ripple_adder());
    const ee_stats first = apply_early_evaluation(mapped.pl);
    ASSERT_GT(first.triggers_added, 0u);
    // Re-attaching a trigger to an already-paired master must throw.
    EXPECT_THROW(mapped.pl.attach_trigger(first.applied.front().master,
                                          first.applied.front().candidate.function,
                                          first.applied.front().candidate.support),
                 std::logic_error);
}

}  // namespace
}  // namespace plee::ee
