// Unit tests for the PL netlist container itself: gate/edge construction
// rules, trigger attachment wiring, arrival-depth analysis, statistics, the
// verify() memo (which attach_trigger keeps), and the lazily built CSR
// adjacency and token-free order.

#include "plogic/pl_netlist.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bench_circuits/itc99.hpp"
#include "ee/ee_transform.hpp"
#include "plogic/pl_mapper.hpp"
#include "sim/pl_sim.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

namespace plee::pl {
namespace {

bf::truth_table and2() {
    return bf::truth_table::variable(2, 0) & bf::truth_table::variable(2, 1);
}

/// source -> g1(and) -> g2(not) -> sink, with conservative acks.
struct chain_fixture {
    pl_netlist pl;
    gate_id src_a, src_b, g1, g2, snk;

    chain_fixture() {
        src_a = pl.add_gate(gate_kind::source, "a");
        src_b = pl.add_gate(gate_kind::source, "b");
        g1 = pl.add_gate(gate_kind::compute, "g1");
        pl.set_function(g1, and2());
        g2 = pl.add_gate(gate_kind::compute, "g2");
        pl.set_function(g2, ~bf::truth_table::variable(1, 0));
        snk = pl.add_gate(gate_kind::sink, "y");

        pl.add_data_edge(src_a, g1, 0, false, false);
        pl.add_data_edge(src_b, g1, 1, false, false);
        pl.add_data_edge(g1, g2, 0, false, false);
        pl.add_data_edge(g2, snk, 0, false, false);
        pl.add_ack_edge(g1, src_a, true);
        pl.add_ack_edge(g1, src_b, true);
        pl.add_ack_edge(g2, g1, true);
        pl.add_ack_edge(snk, g2, true);
    }
};

TEST(PlNetlist, CountsAndAccessors) {
    chain_fixture f;
    EXPECT_EQ(f.pl.num_gates(), 5u);
    EXPECT_EQ(f.pl.num_edges(), 8u);
    EXPECT_EQ(f.pl.num_pl_gates(), 2u);  // compute gates only here
    EXPECT_EQ(f.pl.num_trigger_gates(), 0u);
    EXPECT_EQ(f.pl.num_ack_edges(), 4u);
    EXPECT_EQ(f.pl.sources().size(), 2u);
    EXPECT_EQ(f.pl.sinks().size(), 1u);
    EXPECT_EQ(f.pl.data_in(f.g1).size(), 2u);
    EXPECT_EQ(f.pl.name(f.g1), "g1");
}

TEST(PlNetlist, VerifiesLiveAndSafe) {
    chain_fixture f;
    const mg_report r = f.pl.verify();
    EXPECT_TRUE(r.ok()) << r.violation;
}

TEST(PlNetlist, ArrivalDepthOfChain) {
    chain_fixture f;
    const std::vector<int> depth = f.pl.arrival_depth();
    EXPECT_EQ(depth[f.src_a], 0);
    EXPECT_EQ(depth[f.g1], 1);
    EXPECT_EQ(depth[f.g2], 2);
    EXPECT_EQ(depth[f.snk], 2);  // observed output depth
}

TEST(PlNetlist, PinOrderingEnforced) {
    pl_netlist pl;
    const gate_id s = pl.add_gate(gate_kind::source, "s");
    const gate_id g = pl.add_gate(gate_kind::compute, "g");
    pl.set_function(g, and2());
    // Pin 1 before pin 0 must be rejected.
    EXPECT_THROW(pl.add_data_edge(s, g, 1, false, false), std::invalid_argument);
}

TEST(PlNetlist, FunctionOnlyOnLutGates) {
    pl_netlist pl;
    const gate_id s = pl.add_gate(gate_kind::source, "s");
    EXPECT_THROW(pl.set_function(s, and2()), std::invalid_argument);
    const gate_id c = pl.add_gate(gate_kind::const_source, "k");
    EXPECT_NO_THROW(pl.set_const_value(c, true));
    // A rejected call changes nothing, so the memo of a passed check stays.
    ASSERT_TRUE(pl.verify().ok());
    EXPECT_THROW(pl.set_const_value(s, true), std::invalid_argument);
    EXPECT_TRUE(pl.verified());
    EXPECT_THROW(pl.set_function(c, and2()), std::invalid_argument);
    EXPECT_TRUE(pl.verified());
}

TEST(PlNetlist, AttachTriggerWiring) {
    chain_fixture f;
    // g1 is a 2-input master; trigger over pin 0 with function NOT(x).
    const bf::truth_table kill = ~bf::truth_table::variable(1, 0);
    const gate_id trig = f.pl.attach_trigger(f.g1, kill, 0b01);

    const pl_gate& master = f.pl.gate(f.g1);
    const pl_gate& trigger = f.pl.gate(trig);
    EXPECT_EQ(master.trigger, trig);
    EXPECT_EQ(trigger.master, f.g1);
    EXPECT_EQ(trigger.kind, gate_kind::trigger);
    EXPECT_EQ(trigger.trigger_support, 0b01u);
    ASSERT_EQ(f.pl.data_in(trig).size(), 1u);
    EXPECT_EQ(f.pl.name(trig), "g1_ee");
    // The trigger taps the same producer as master pin 0.
    EXPECT_EQ(f.pl.edge(f.pl.data_in(trig)[0]).from,
              f.pl.edge(f.pl.data_in(f.g1)[0]).from);
    // efire edge runs trigger -> master and is not a LUT pin.
    ASSERT_NE(master.efire_in, k_invalid_edge);
    EXPECT_EQ(f.pl.edge(master.efire_in).from, trig);
    EXPECT_EQ(f.pl.edge(master.efire_in).to_pin, -1);
    EXPECT_EQ(f.pl.data_in(f.g1).size(), 2u);  // pins unchanged

    // The pairing keeps the marked graph healthy.
    EXPECT_TRUE(f.pl.verify().ok());
    EXPECT_EQ(f.pl.num_trigger_gates(), 1u);
    EXPECT_EQ(f.pl.num_pl_gates(), 2u);  // EE gates counted separately
}

TEST(PlNetlist, AttachTriggerRejectsBadRequests) {
    chain_fixture f;
    const bf::truth_table kill = ~bf::truth_table::variable(1, 0);
    // Arity mismatch: 1-var function for a 2-pin support.
    EXPECT_THROW(f.pl.attach_trigger(f.g1, kill, 0b11), std::invalid_argument);
    // Non-compute master.
    EXPECT_THROW(f.pl.attach_trigger(f.src_a, kill, 0b01), std::invalid_argument);
    // Empty and full supports, each with a function of matching arity: a
    // trigger over no pin or over every pin is no early evaluation.
    EXPECT_THROW(f.pl.attach_trigger(f.g1, bf::truth_table(0), 0), std::invalid_argument);
    EXPECT_THROW(f.pl.attach_trigger(f.g1, and2(), 0b11), std::invalid_argument);
    // Double attachment.
    f.pl.attach_trigger(f.g1, kill, 0b01);
    EXPECT_THROW(f.pl.attach_trigger(f.g1, kill, 0b01), std::logic_error);
}

TEST(PlNetlist, TriggerDeepensArrivalOfMaster) {
    chain_fixture f;
    const std::vector<int> before = f.pl.arrival_depth();
    const bf::truth_table kill = ~bf::truth_table::variable(1, 0);
    const gate_id trig = f.pl.attach_trigger(f.g1, kill, 0b01);
    const std::vector<int> after = f.pl.arrival_depth();
    // The trigger is a depth-1 gate (fed by sources); the master now also
    // waits for the efire token in the static model.
    EXPECT_EQ(after[trig], 1);
    EXPECT_GE(after[f.g1], before[f.g1]);
}

TEST(PlNetlist, DotOutputContainsTriggersAsDiamonds) {
    chain_fixture f;
    f.pl.attach_trigger(f.g1, ~bf::truth_table::variable(1, 0), 0b01);
    const std::string dot = f.pl.to_dot();
    EXPECT_NE(dot.find("shape=diamond"), std::string::npos);
    EXPECT_NE(dot.find("label=\"*\""), std::string::npos);  // initial tokens
}

TEST(PlNetlist, EdgeRangeChecks) {
    pl_netlist pl;
    const gate_id s = pl.add_gate(gate_kind::source, "s");
    EXPECT_THROW(pl.add_data_edge(s, 42, 0, false, false), std::invalid_argument);
    EXPECT_THROW(pl.add_ack_edge(42, s, false), std::invalid_argument);
    EXPECT_THROW(pl.set_function(42, and2()), std::invalid_argument);
    EXPECT_THROW(pl.set_const_value(42, true), std::invalid_argument);
    EXPECT_THROW(pl.attach_trigger(42, and2(), 0b11), std::invalid_argument);
}

TEST(PlNetlist, EveryMutatorButAttachTriggerClearsTheVerifyMemo) {
    chain_fixture f;
    EXPECT_FALSE(f.pl.verified());
    const auto pass_check = [&f] {
        ASSERT_TRUE(f.pl.verify().ok());
        ASSERT_TRUE(f.pl.verified());
    };
    const auto cleared = [&f](const char* mutator) {
        EXPECT_FALSE(f.pl.verified()) << mutator;
    };
    pass_check();
    const gate_id k = f.pl.add_gate(gate_kind::const_source, "k");
    cleared("add_gate");
    pass_check();
    f.pl.set_const_value(k, true);
    cleared("set_const_value");
    pass_check();
    f.pl.set_function(f.g2, bf::truth_table::variable(1, 0));
    cleared("set_function");
    pass_check();
    // attach_trigger keeps a passed check: the gadget leaves a well-formed,
    // live and safe netlist so (its header comment has the proof).
    f.pl.attach_trigger(f.g1, ~bf::truth_table::variable(1, 0), 0b01);
    EXPECT_TRUE(f.pl.verified()) << "attach_trigger";
    EXPECT_TRUE(verify_marked_graph(f.pl).ok());
    // An acknowledge added after it clears the memo, so the next verify()
    // runs the full analysis.  This one closes a one-token cycle through g1
    // and g2 only, and the analysis accepts it.
    f.pl.add_ack_edge(f.g2, f.src_a, true);
    cleared("add_ack_edge after attach_trigger");
    pass_check();
    const gate_id y2 = f.pl.add_gate(gate_kind::sink, "y2");
    pass_check();
    f.pl.add_data_edge(f.g2, y2, 0, false, false);
    cleared("add_data_edge");
    // The new edge lies on no cycle yet: a failed verify() leaves the memo
    // cleared.
    EXPECT_FALSE(f.pl.verify().ok());
    cleared("a failed verify()");
    f.pl.add_ack_edge(y2, f.g2, true);
    cleared("add_ack_edge");
    pass_check();
}

TEST(PlNetlist, FailedVerifyNeverSetsTheMemo) {
    pl_netlist pl;
    const gate_id s = pl.add_gate(gate_kind::source, "s");
    const gate_id y = pl.add_gate(gate_kind::sink, "y");
    pl.add_data_edge(s, y, 0, false, false);  // no acknowledge: no cycle
    EXPECT_FALSE(pl.verify().ok());
    EXPECT_FALSE(pl.verified());
    pl.add_ack_edge(y, s, false);  // a cycle, but token-free: not live
    EXPECT_FALSE(pl.verify().ok());
    EXPECT_FALSE(pl.verified());
}

TEST(PlNetlist, CopiesCarryTheVerifyMemo) {
    chain_fixture f;
    const pl_netlist before = f.pl;
    EXPECT_FALSE(before.verified());
    ASSERT_TRUE(f.pl.verify().ok());
    const pl_netlist copy = f.pl;
    EXPECT_TRUE(copy.verified());
    pl_netlist assigned;
    assigned = f.pl;
    EXPECT_TRUE(assigned.verified());
    const pl_netlist moved = std::move(assigned);
    EXPECT_TRUE(moved.verified());
    // A copy's memo is its own: mutating the copy leaves the original's.
    pl_netlist mutated = f.pl;
    mutated.add_gate(gate_kind::compute, "extra");
    EXPECT_FALSE(mutated.verified());
    EXPECT_TRUE(f.pl.verified());
}

TEST(PlNetlist, ConcurrentVerifyOnOneConstNetlist) {
    // Without the memo both threads may run the full analysis at once; with
    // it, kept through attach_trigger, both read it.
    for (const bool memo : {false, true}) {
        SCOPED_TRACE(memo ? "memo" : "full");
        chain_fixture f;
        if (memo) {
            ASSERT_TRUE(f.pl.verify().ok());
        }
        f.pl.attach_trigger(f.g1, ~bf::truth_table::variable(1, 0), 0b01);
        ASSERT_EQ(f.pl.verified(), memo);
        const pl_netlist& shared = f.pl;
        std::atomic<int> passed{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < 2; ++t) {
            threads.emplace_back([&shared, &passed] {
                for (int i = 0; i < 50; ++i) {
                    if (shared.verify().ok() && shared.verified()) ++passed;
                }
            });
        }
        for (std::thread& t : threads) t.join();
        EXPECT_EQ(passed.load(), 100);
        EXPECT_TRUE(shared.verified());
    }
}

/// Appends a trigger gadget for g1 over pin 0 by hand, with the given
/// markings.  attach_trigger marks the tap like g1's pin-0 edge (unmarked),
/// the tap ack and the efire ack, and leaves the efire edge unmarked.
/// tap_ack < 0 leaves the tap without one.
void append_gadget(chain_fixture& f, bool tap, int tap_ack, bool efire_ack) {
    const gate_id t = f.pl.add_gate(gate_kind::trigger, "t");
    f.pl.set_function(t, ~bf::truth_table::variable(1, 0));
    f.pl.add_data_edge(f.src_a, t, 0, tap, false);
    if (tap_ack >= 0) f.pl.add_ack_edge(t, f.src_a, tap_ack != 0);
    f.pl.add_data_edge(t, f.g1, -1, false, false);
    f.pl.add_ack_edge(f.g1, t, efire_ack);
}

TEST(PlNetlist, VerifyRejectsHandBuiltMismarkedGadgets) {
    struct bad_gadget {
        const char* name;
        bool tap;
        int tap_ack;
        bool efire_ack;
        bool live;  ///< what the token-free order alone says
    };
    // Built edge by edge after a passed check: add_data_edge and
    // add_ack_edge clear the memo, so verify() runs the full analysis.
    const bad_gadget cases[] = {
        // A tap and its ack both marked: a two-token cycle.  Unsafe, and
        // invisible to the token-free order.  The only other cycles back
        // to the source run through g1's marked ack, which carry two
        // tokens too.
        {"two-token tap cycle", true, 1, true, true},
        // The efire ack left unmarked: trigger -> g1 -> trigger is
        // token-free.
        {"token-free efire cycle", false, 1, false, false},
        // A marked tap without its ack: its cycles through g1's marked ack
        // carry two tokens.
        {"tap without its ack", true, -1, true, true},
    };
    for (const bad_gadget& c : cases) {
        SCOPED_TRACE(c.name);
        chain_fixture f;
        ASSERT_TRUE(f.pl.verify().ok());
        append_gadget(f, c.tap, c.tap_ack, c.efire_ack);
        EXPECT_FALSE(f.pl.verified());
        const mg_report r = f.pl.verify();
        EXPECT_FALSE(r.ok());
        EXPECT_EQ(r.live, c.live);
        EXPECT_FALSE(r.violation.empty());
        EXPECT_FALSE(f.pl.verified());
    }

    // The analysis accepts attach_trigger's marking built by hand, and an
    // unmarked tap without its ack, which closes a one-token cycle through
    // g1's ack of the source.
    for (const int tap_ack : {1, -1}) {
        chain_fixture f;
        ASSERT_TRUE(f.pl.verify().ok());
        append_gadget(f, false, tap_ack, true);
        EXPECT_TRUE(f.pl.verify().ok()) << tap_ack;
    }
}

// --- Adjacency --------------------------------------------------------------

std::vector<edge_id> list(std::span<const edge_id> s) { return {s.begin(), s.end()}; }

/// The adjacency oracle: one scan of the edge array in id order gives every
/// gate's in- and out-lists, and its data edges ordered by pin give its
/// data pins.
void expect_adjacency_matches_edge_scan(const pl_netlist& pl) {
    std::vector<std::vector<edge_id>> in(pl.num_gates());
    std::vector<std::vector<edge_id>> out(pl.num_gates());
    std::vector<std::vector<edge_id>> pins(pl.num_gates());
    for (edge_id e = 0; e < pl.num_edges(); ++e) {
        const pl_edge& edge = pl.edge(e);
        in[edge.to].push_back(e);
        out[edge.from].push_back(e);
        if (edge.kind == edge_kind::data && edge.to_pin >= 0) pins[edge.to].push_back(e);
    }
    for (gate_id g = 0; g < pl.num_gates(); ++g) {
        std::stable_sort(pins[g].begin(), pins[g].end(), [&](edge_id a, edge_id b) {
            return pl.edge(a).to_pin < pl.edge(b).to_pin;
        });
        for (std::size_t p = 0; p < pins[g].size(); ++p) {
            ASSERT_EQ(pl.edge(pins[g][p]).to_pin, static_cast<int>(p)) << "gate " << g;
        }
        ASSERT_EQ(list(pl.in_edges(g)), in[g]) << "gate " << g;
        ASSERT_EQ(list(pl.out_edges(g)), out[g]) << "gate " << g;
        ASSERT_EQ(list(pl.data_in(g)), pins[g]) << "gate " << g;
        ASSERT_EQ(pl.gate(g).num_data, pins[g].size()) << "gate " << g;
    }
}

/// Maps a seeded preset, checks the oracle, then re-attaches on a fresh map
/// the triggers the EE pass chose, one at a time, checking after each.
void expect_adjacency_through_ee(wl::scenario kind, std::size_t gates,
                                 std::uint64_t seed, bool share_feedbacks) {
    SCOPED_TRACE(std::string(wl::to_string(kind)) + " seed " + std::to_string(seed));
    const nl::netlist sync = wl::generate(wl::scenario_params(kind, gates, seed));
    map_options options;
    options.share_feedbacks = share_feedbacks;
    map_result reference = map_to_phased_logic(sync, options);
    const ee::ee_stats stats = ee::apply_early_evaluation(reference.pl);
    ASSERT_GT(stats.triggers_added, 0u);

    map_result mapped = map_to_phased_logic(sync, options);
    expect_adjacency_matches_edge_scan(mapped.pl);
    for (const ee::applied_trigger& at : stats.applied) {
        const gate_id trig = mapped.pl.attach_trigger(at.master, at.candidate.function,
                                                      at.candidate.support);
        ASSERT_EQ(trig, at.trigger);
        expect_adjacency_matches_edge_scan(mapped.pl);
    }
    EXPECT_TRUE(mapped.pl.verified());
    EXPECT_TRUE(verify_marked_graph(mapped.pl).ok());
    ASSERT_EQ(mapped.pl.num_edges(), reference.pl.num_edges());
    for (gate_id g = 0; g < mapped.pl.num_gates(); ++g) {
        ASSERT_EQ(list(mapped.pl.in_edges(g)), list(reference.pl.in_edges(g)));
        ASSERT_EQ(list(mapped.pl.out_edges(g)), list(reference.pl.out_edges(g)));
        ASSERT_EQ(mapped.pl.name(g), reference.pl.name(g));
    }
}

TEST(PlNetlist, AdjacencyMatchesEdgeScanOnHandBuiltNetlists) {
    chain_fixture f;
    expect_adjacency_matches_edge_scan(f.pl);
    f.pl.attach_trigger(f.g1, ~bf::truth_table::variable(1, 0), 0b01);
    expect_adjacency_matches_edge_scan(f.pl);
    // Interleaved queries and mutations: every query sees the latest edges.
    chain_fixture g;
    const gate_id t = g.pl.add_gate(gate_kind::compute, "t");
    g.pl.set_function(t, and2());
    expect_adjacency_matches_edge_scan(g.pl);
    g.pl.add_data_edge(g.src_a, t, 0, false, false);
    expect_adjacency_matches_edge_scan(g.pl);
    g.pl.add_data_edge(g.g2, t, 1, true, true);
    g.pl.add_ack_edge(t, g.src_a, true);
    expect_adjacency_matches_edge_scan(g.pl);
    // A copy and a moved-to netlist rebuild the lists on their first query.
    const pl_netlist copy = g.pl;
    expect_adjacency_matches_edge_scan(copy);
    pl_netlist moved = std::move(g.pl);
    expect_adjacency_matches_edge_scan(moved);
    moved.add_ack_edge(t, g.g2, false);
    expect_adjacency_matches_edge_scan(moved);
    expect_adjacency_matches_edge_scan(copy);
}

TEST(PlNetlist, AdjacencyMatchesEdgeScanThroughEveryAttachTrigger) {
    expect_adjacency_through_ee(wl::scenario::random_dag, 120, 7, true);
    expect_adjacency_through_ee(wl::scenario::datapath_like, 120, 11, true);
    expect_adjacency_through_ee(wl::scenario::control_fsm, 120, 3, false);
    expect_adjacency_through_ee(wl::scenario::lut8_datapath, 80, 5, true);
}

TEST(PlNetlist, ConcurrentSimulatorCompilesShareOneLazyAdjacency) {
    // Several threads compile simulators on one const netlist whose CSR (and
    // verify memo) a mutation just cleared; each must see the same schedule.
    const nl::netlist sync =
        wl::generate(wl::scenario_params(wl::scenario::datapath_like, 600, 9));
    map_result mapped = map_to_phased_logic(sync);
    ee::apply_early_evaluation(mapped.pl);
    gate_id g = 0;
    while (mapped.pl.gate(g).kind != gate_kind::compute) ++g;
    mapped.pl.set_function(g, mapped.pl.gate(g).function);
    ASSERT_FALSE(mapped.pl.verified());
    const pl_netlist& shared = mapped.pl;
    const std::vector<sim::stimulus_block> blocks =
        sim::make_stimulus(64, shared.sources().size(), 4);

    constexpr std::size_t k_threads = 4;
    std::vector<sim::lane_block_result> results(k_threads);
    // A throw must not leave a thread body: it would end the whole binary
    // before it names the failure or runs a later test.
    std::vector<std::string> errors(k_threads);
    std::latch start(k_threads);  // every thread starts its compile at once
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < k_threads; ++t) {
        threads.emplace_back([&shared, &blocks, &results, &errors, &start, t] {
            start.arrive_and_wait();
            try {
                sim::pl_simulator simulator(shared);
                results[t] = simulator.run_lanes(blocks).front();
            } catch (const std::exception& e) {
                errors[t] = e.what();
            } catch (...) {
                errors[t] = "an exception not derived from std::exception";
            }
        });
    }
    for (std::thread& t : threads) t.join();
    for (std::size_t t = 0; t < k_threads; ++t) {
        if (!errors[t].empty()) ADD_FAILURE() << "thread " << t << " threw: " << errors[t];
    }
    EXPECT_TRUE(shared.verified());
    sim::pl_simulator serial(shared);
    const sim::lane_block_result expected = serial.run_lanes(blocks).front();
    for (std::size_t t = 0; t < k_threads; ++t) {
        if (!errors[t].empty()) continue;
        const sim::lane_block_result& r = results[t];
        EXPECT_EQ(r.outputs, expected.outputs) << "thread " << t;
        EXPECT_EQ(r.input_stable, expected.input_stable) << "thread " << t;
        EXPECT_EQ(r.output_stable, expected.output_stable) << "thread " << t;
        EXPECT_EQ(r.plain_input_stable, expected.plain_input_stable) << "thread " << t;
        EXPECT_EQ(r.plain_output_stable, expected.plain_output_stable)
            << "thread " << t;
    }
    expect_adjacency_matches_edge_scan(shared);
}

/// The token-free order's contract: each gate at most once, the gates with
/// no token-free in-edge first and in id order, every token-free edge
/// pointing forward (a gate missing from the order feeds only missing
/// gates), and complete exactly when verify() finds the netlist live.
void expect_token_free_order(const pl_netlist& pl) {
    const std::span<const gate_id> order = pl.token_free_order();
    constexpr std::size_t k_missing = static_cast<std::size_t>(-1);
    std::vector<std::size_t> pos(pl.num_gates(), k_missing);
    for (std::size_t i = 0; i < order.size(); ++i) {
        ASSERT_EQ(pos[order[i]], k_missing) << "gate " << order[i] << " twice";
        pos[order[i]] = i;
    }
    std::vector<bool> fed(pl.num_gates(), false);
    for (edge_id e = 0; e < pl.num_edges(); ++e) {
        const pl_edge& edge = pl.edge(e);
        if (edge.init_token) continue;
        fed[edge.to] = true;
        if (pos[edge.from] == k_missing) {
            EXPECT_EQ(pos[edge.to], k_missing) << "edge " << e;
        } else if (pos[edge.to] != k_missing) {
            EXPECT_LT(pos[edge.from], pos[edge.to]) << "edge " << e;
        }
    }
    std::vector<gate_id> leaders;
    for (gate_id g = 0; g < pl.num_gates(); ++g) {
        if (!fed[g]) leaders.push_back(g);
    }
    ASSERT_GE(order.size(), leaders.size());
    EXPECT_EQ(std::vector<gate_id>(order.begin(), order.begin() + leaders.size()),
              leaders);
    EXPECT_EQ(order.size() == pl.num_gates(), pl.verify().live);
}

TEST(PlNetlist, TokenFreeOrderIsCompleteExactlyWhenLive) {
    {
        SCOPED_TRACE("chain");
        chain_fixture f;
        expect_token_free_order(f.pl);
        EXPECT_EQ(f.pl.token_free_order().size(), f.pl.num_gates());
    }
    {
        SCOPED_TRACE("b05");
        map_result mapped = map_to_phased_logic(bench::build_benchmark("b05"));
        expect_token_free_order(mapped.pl);
        ASSERT_GT(ee::apply_early_evaluation(mapped.pl).triggers_added, 0u);
        expect_token_free_order(mapped.pl);
        EXPECT_EQ(mapped.pl.token_free_order().size(), mapped.pl.num_gates());
    }
    {
        // g1 <-> g2 without tokens: the cycle and the sink it feeds never
        // enter the order.
        SCOPED_TRACE("token-free cycle");
        chain_fixture f;
        f.pl.add_data_edge(f.g2, f.g1, -1, false, false);
        expect_token_free_order(f.pl);
        EXPECT_EQ(f.pl.token_free_order().size(), 2u);
        EXPECT_FALSE(f.pl.verify().live);
        EXPECT_THROW(f.pl.arrival_depth(), std::logic_error);
    }
}

TEST(PlNetlist, KindNames) {
    EXPECT_STREQ(to_string(gate_kind::compute), "compute");
    EXPECT_STREQ(to_string(gate_kind::trigger), "trigger");
    EXPECT_STREQ(to_string(gate_kind::through), "through");
}

}  // namespace
}  // namespace plee::pl
