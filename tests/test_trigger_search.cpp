// Tests for the trigger-function search — the paper's core algorithm.
// Includes an exact reproduction of the running example of Section 3
// (Tables 1 and 2): the full-adder carry-out master with trigger ab + a'b'
// at 50% coverage over support {a, b}.

#include "ee/trigger_search.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "bool/splitmix64.hpp"
#include "bool/support.hpp"
#include "plogic/pl_mapper.hpp"
#include "trigger_oracle.hpp"
#include "workload/workload.hpp"

namespace plee::ee {
namespace {

/// The paper's master: carry-out c(a+b) + ab with a=var0, b=var1, c=var2.
bf::truth_table carry_master() {
    const bf::truth_table a = bf::truth_table::variable(3, 0);
    const bf::truth_table b = bf::truth_table::variable(3, 1);
    const bf::truth_table c = bf::truth_table::variable(3, 2);
    return (c & (a | b)) | (a & b);
}

TEST(TriggerSearch, PaperTable1TriggerForSupportAB) {
    // Exact derivation over S = {a, b}: trigger = ab + a'b' (XNOR), exactly
    // the paper's Table 1 "Trigger" column.
    const bf::truth_table trig = exact_trigger_function(carry_master(), 0b011);
    const bf::truth_table xnor2 =
        ~(bf::truth_table::variable(2, 0) ^ bf::truth_table::variable(2, 1));
    EXPECT_EQ(trig, xnor2);
}

TEST(TriggerSearch, PaperTable1CoverageIs50Percent) {
    // "an overall coverage of 4/8 = 50% is computed".
    const bf::truth_table master = carry_master();
    const bf::truth_table trig = exact_trigger_function(master, 0b011);
    EXPECT_EQ(covered_minterms(master, 0b011, trig), 4);
}

TEST(TriggerSearch, PaperTable2CubeListDerivationAgrees) {
    // The cube-list procedure of Table 2 finds f_trig = {00-, 11-} projected
    // to {a,b}: identical to the exact trigger for this master.
    const bf::truth_table master = carry_master();
    const bf::on_off_cover cover = bf::make_on_off_cover(master);
    const bf::truth_table trig = cube_list_trigger_function(master, cover, 0b011);
    EXPECT_EQ(trig, exact_trigger_function(master, 0b011));
    EXPECT_EQ(covered_minterms(master, 0b011, trig), 4);
}

TEST(TriggerSearch, CarryInOnlySupportsGiveNoEarlyWin) {
    // S = {c}: neither c=0 nor c=1 determines the carry (propagate cases
    // always exist), so the trigger is constant 0.
    const bf::truth_table trig = exact_trigger_function(carry_master(), 0b100);
    EXPECT_TRUE(trig.is_constant_zero());
}

TEST(TriggerSearch, SingleVariableSupportsOfCarry) {
    // S = {a}: a alone never fixes carry (b and c can push it either way);
    // same for {b}.
    EXPECT_TRUE(exact_trigger_function(carry_master(), 0b001).is_constant_zero());
    EXPECT_TRUE(exact_trigger_function(carry_master(), 0b010).is_constant_zero());
}

TEST(TriggerSearch, MixedSupportsOfCarry) {
    // S = {a, c}: a=1,c=1 forces carry=1; a=0,c=0 forces 0 — coverage 4/8.
    const bf::truth_table trig = exact_trigger_function(carry_master(), 0b101);
    EXPECT_EQ(covered_minterms(carry_master(), 0b101, trig), 4);
}

TEST(TriggerSearch, AndGateKillSignals) {
    // master = a AND b AND c: any 0 input kills the output; a single-var
    // support {a} triggers on a=0 (coverage 4/8).
    const bf::truth_table master = bf::truth_table::variable(3, 0) &
                                   bf::truth_table::variable(3, 1) &
                                   bf::truth_table::variable(3, 2);
    const bf::truth_table trig = exact_trigger_function(master, 0b001);
    EXPECT_EQ(trig, ~bf::truth_table::variable(1, 0));  // fires on a = 0
    EXPECT_EQ(covered_minterms(master, 0b001, trig), 4);
}

TEST(TriggerSearch, XorHasNoTrigger) {
    // Parity is never determined by a proper subset: all candidates dead.
    const bf::truth_table master = bf::truth_table::variable(3, 0) ^
                                   bf::truth_table::variable(3, 1) ^
                                   bf::truth_table::variable(3, 2);
    EXPECT_FALSE(find_best_trigger(master, {0, 0, 0}).has_value());
    for (const trigger_candidate& c : trigger_candidates(master, {0, 0, 0})) {
        EXPECT_EQ(c.covered_minterms, 0);
    }
}

TEST(TriggerSearch, FourteenSupportSetsEvaluatedForLut4) {
    // A 4-input master with non-trivial triggers everywhere: OR4.  All 14
    // support sets yield a candidate (any 1 in the subset forces output 1).
    const bf::truth_table master = bf::truth_table::from_function(
        4, [](std::uint32_t m) { return m != 0; });
    EXPECT_EQ(trigger_candidates(master, {3, 2, 1, 0}).size(), 14u);
    ASSERT_TRUE(find_best_trigger(master, {3, 2, 1, 0}).has_value());
}

TEST(TriggerSearch, EquationOneArrivalWeighting) {
    // Two supports with equal coverage: the one fed by faster-arriving
    // signals must win — "a large coverage ... may depend on slowly arriving
    // signals and thus not be as effective".
    const bf::truth_table master = carry_master();
    // Arrivals: a fast (depth 0), b fast (0), c slow (5).
    const std::optional<trigger_candidate> best = find_best_trigger(master, {0, 0, 5});
    ASSERT_TRUE(best.has_value());
    EXPECT_EQ(best->support, 0b011u);  // {a, b}: avoids the slow carry-in
    EXPECT_EQ(best->master_max_arrival, 5);
    EXPECT_EQ(best->trigger_max_arrival, 0);
}

TEST(TriggerSearch, RequireArrivalGainFiltersSlowTriggers) {
    // All inputs arrive simultaneously: no support subset can be faster, so
    // nothing is implementable under the default policy.
    EXPECT_FALSE(find_best_trigger(carry_master(), {2, 2, 2}).has_value());

    search_options relaxed;
    relaxed.require_arrival_gain = false;
    EXPECT_TRUE(find_best_trigger(carry_master(), {2, 2, 2}, relaxed).has_value());
}

TEST(TriggerSearch, CostThresholdFilters) {
    search_options opts;
    opts.cost_threshold = 1e9;  // nothing can clear this bar
    EXPECT_FALSE(find_best_trigger(carry_master(), {0, 0, 5}, opts).has_value());
}

TEST(TriggerSearch, Equation1CostFormula) {
    // cost = coverage% * (Mmax+1)/(Tmax+1) — the +1 smoothing documented in
    // the header (depths start at 0 for environment/register signals).
    EXPECT_DOUBLE_EQ(equation1_cost(50.0, 5, 0), 50.0 * 6.0 / 1.0);
    EXPECT_DOUBLE_EQ(equation1_cost(25.0, 3, 1), 25.0 * 4.0 / 2.0);
    EXPECT_DOUBLE_EQ(equation1_cost(100.0, 0, 0), 100.0);
}

TEST(TriggerSearch, FullCoverageCandidatesAreRejected) {
    // master = x0 (expressed over 2 vars): support {x0} determines the
    // output for every assignment — a vacuous-input artifact, not EE.
    const bf::truth_table master = bf::truth_table::variable(2, 0);
    EXPECT_FALSE(find_best_trigger(master, {0, 5}).has_value());
}

TEST(TriggerSearch, ArrivalsMustMatchTheArityAndBeDepths) {
    // The early-pin mask is exact only for depths >= 0: both entry points
    // reject a negative arrival, and a list of the wrong length.
    for (const std::vector<int>& arrivals :
         {std::vector<int>{0, 0}, std::vector<int>{0, -1, 2}}) {
        EXPECT_THROW(find_best_trigger(carry_master(), arrivals), std::invalid_argument);
        EXPECT_THROW(trigger_candidates(carry_master(), arrivals),
                     std::invalid_argument);
    }
}

TEST(TriggerSearch, CubeListCoverageNeverExceedsExact) {
    // The exact (cofactor) trigger is maximal for each support set; the
    // paper's cube-list derivation can only tie or lose (SOP-dependent).
    std::uint64_t state = 99;
    for (int trial = 0; trial < 40; ++trial) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const bf::truth_table master(4, state & 0xffff);
        if (master.support_size() < 2) continue;
        const bf::on_off_cover cover = bf::make_on_off_cover(master);
        for (std::uint32_t s :
             bf::enumerate_support_subsets(master.support_mask(), 3)) {
            const bf::truth_table exact = exact_trigger_function(master, s);
            const bf::truth_table cubes = cube_list_trigger_function(master, cover, s);
            EXPECT_LE(covered_minterms(master, s, cubes),
                      covered_minterms(master, s, exact));
            // And cube triggers are sound: implied by the exact trigger.
            EXPECT_TRUE((cubes & ~exact).is_constant_zero());
        }
    }
}

/// One master of a mapped netlist as the EE pass sees it: its function and
/// the arrival depth of each pin.
struct workload_master {
    std::string where;
    bf::truth_table function{0};
    std::vector<int> arrivals;
};

/// Every compute master with >= 2 pins of `netlist` once mapped.
void collect_masters(const std::string& where, const nl::netlist& netlist,
                     std::vector<workload_master>& out) {
    const pl::map_result mapped = pl::map_to_phased_logic(netlist);
    const std::vector<int> arrival = mapped.pl.arrival_depth();
    for (pl::gate_id g = 0; g < mapped.pl.num_gates(); ++g) {
        const pl::pl_gate& gate = mapped.pl.gate(g);
        if (gate.kind != pl::gate_kind::compute || mapped.pl.data_in(g).size() < 2) {
            continue;
        }
        workload_master m{where + "/" + std::to_string(g), gate.function, {}};
        for (pl::edge_id e : mapped.pl.data_in(g)) {
            m.arrivals.push_back(arrival[mapped.pl.edge(e).from]);
        }
        out.push_back(std::move(m));
    }
}

TEST(TriggerSearch, PrunedSearchMatchesTheOracleOnWorkloadMasters) {
    // The masters the EE pass serves: ITC99, and the first seed-7 netlist of
    // each preset as the benchmark workloads build it (generator seed
    // splitmix64(7 * 64 + i), 400 LUTs for the LUT4 presets, 150 for the
    // wide ones).  The pruned winner must be the full sweep's, field by
    // field, and trigger_candidates the sweep's list, under both arrival
    // policies, two thresholds and both methods (cube-list up to 6 pins).
    std::vector<workload_master> masters;
    for (const bench::benchmark_info& b : bench::itc99_suite()) {
        collect_masters(b.id, b.build(), masters);
    }
    // (preset, LUTs, index i in its workload's fleet)
    const std::tuple<wl::scenario, std::size_t, std::uint64_t> presets[] = {
        {wl::scenario::random_dag, 400, 0},  {wl::scenario::datapath_like, 400, 1},
        {wl::scenario::control_fsm, 400, 2}, {wl::scenario::wide_adder, 400, 3},
        {wl::scenario::lut6_dag, 150, 0},    {wl::scenario::lut8_datapath, 150, 1}};
    for (const auto& [kind, gates, i] : presets) {
        collect_masters(wl::to_string(kind),
                        wl::generate(wl::scenario_params(kind, gates,
                                                         bf::splitmix64(7 * 64 + i))),
                        masters);
    }
    std::size_t searches = 0;
    std::size_t winners = 0;
    std::size_t partly_early = 0;  // masters with early pins and pins at Mmax
    for (const workload_master& m : masters) {
        const int latest = *std::max_element(m.arrivals.begin(), m.arrivals.end());
        if (std::count(m.arrivals.begin(), m.arrivals.end(), latest) <
            static_cast<std::ptrdiff_t>(m.arrivals.size())) {
            ++partly_early;
        }
        for (int policy = 0; policy < 8; ++policy) {
            search_options opts;
            opts.require_arrival_gain = (policy & 1) != 0;
            opts.cost_threshold = (policy & 2) ? 60.0 : 0.0;
            opts.method = (policy & 4) ? trigger_method::cube_list : trigger_method::exact;
            if (opts.method == trigger_method::cube_list &&
                m.function.num_vars() > bf::k_word_vars) {
                continue;
            }
            const std::optional<trigger_candidate> best =
                find_best_trigger(m.function, m.arrivals, opts);
            ASSERT_TRUE(scalar::matches_oracle(
                best, trigger_candidates(m.function, m.arrivals, opts),
                scalar::find_best_trigger(m.function, m.arrivals, opts)))
                << m.where << " policy=" << policy;
            ++searches;
            if (best) ++winners;
        }
    }
    // Guard the inputs: pruning and winners must both be common, or the
    // comparison checks little.
    EXPECT_GE(masters.size(), 2000u);
    EXPECT_GE(4 * partly_early, masters.size()) << partly_early;
    EXPECT_GE(4 * winners, searches) << winners << " of " << searches;
}

// Property: a trigger firing on an assignment really determines the master.
class TriggerSoundness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TriggerSoundness, TriggerImpliesConstantCofactor) {
    std::uint64_t state = GetParam();
    for (int trial = 0; trial < 20; ++trial) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const bf::truth_table master(4, state & 0xffff);
        if (master.support_size() < 2) continue;
        for (std::uint32_t s :
             bf::enumerate_support_subsets(master.support_mask(), 3)) {
            const bf::truth_table trig = exact_trigger_function(master, s);
            const std::vector<int> members = bf::support_members(s);
            for (std::uint32_t m = 0; m < master.num_minterms(); ++m) {
                std::uint32_t packed = 0;
                for (std::size_t i = 0; i < members.size(); ++i) {
                    if ((m >> members[i]) & 1u) packed |= 1u << i;
                }
                if (!trig.eval(packed)) continue;
                // All completions of this S-assignment agree with m's value.
                const std::uint32_t keep = s;
                for (std::uint32_t m2 = 0; m2 < master.num_minterms(); ++m2) {
                    if ((m2 & keep) == (m & keep)) {
                        EXPECT_EQ(master.eval(m2), master.eval(m));
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriggerSoundness,
                         ::testing::Values(7u, 19u, 43u, 67u, 101u, 151u));

}  // namespace
}  // namespace plee::ee
