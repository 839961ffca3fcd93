// Randomized property suite for the multiword (7- and 8-variable) truth
// tables: every widened word kernel is cross-checked against a naive
// per-minterm oracle, all randomness from fixed splitmix64 seeds so a
// failure reproduces bit-for-bit anywhere.  This is the > 6-variable
// counterpart of the exhaustive single-word sweeps in test_truth_table.cpp
// and test_word_parallel.cpp: the spaces are too large to enumerate
// functions, so sampled functions are checked exhaustively per minterm.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <optional>
#include <vector>

#include "bool/cube_list.hpp"
#include "bool/splitmix64.hpp"
#include "bool/support.hpp"
#include "bool/truth_table.hpp"
#include "ee/trigger_search.hpp"
#include "netlist/netlist.hpp"
#include "trigger_oracle.hpp"
#include "workload/workload.hpp"

namespace plee::bf {
namespace {

class sm_stream {
public:
    explicit sm_stream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() { return splitmix64(state_++); }

private:
    std::uint64_t state_;
};

truth_table random_table(int n, sm_stream& rng) {
    tt_words words{};
    for (int w = 0; w < words_for(n); ++w) words[w] = rng.next();
    if (n < k_word_vars) words[0] &= (std::uint64_t{1} << (1u << n)) - 1;
    return truth_table(n, words);
}

std::vector<int> random_perm(int n, sm_stream& rng) {
    std::vector<int> p(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) p[static_cast<std::size_t>(v)] = v;
    for (int v = n - 1; v > 0; --v) {
        std::swap(p[static_cast<std::size_t>(v)],
                  p[rng.next() % static_cast<std::uint64_t>(v + 1)]);
    }
    return p;
}

TEST(MultiwordProps, EvalSetAndStringRoundTripPerMinterm) {
    sm_stream rng(0x9e3779b97f4a7c15ull);
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 20; ++trial) {
            const truth_table f = random_table(n, rng);
            ASSERT_EQ(truth_table::from_string(f.to_string()), f);
            truth_table rebuilt(n);
            int ones = 0;
            for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
                const bool v = f.eval(m);
                rebuilt.set(m, v);
                ones += v ? 1 : 0;
                ASSERT_EQ(v, ((f.words()[m >> 6] >> (m & 63)) & 1u) != 0);
            }
            ASSERT_EQ(rebuilt, f);
            ASSERT_EQ(f.count_ones(), ones);
        }
    }
}

TEST(MultiwordProps, VariableProjectionsMatchDefinition) {
    for (int n : {7, 8}) {
        for (int v = 0; v < n; ++v) {
            const truth_table x = truth_table::variable(n, v);
            for (std::uint32_t m = 0; m < x.num_minterms(); ++m) {
                ASSERT_EQ(x.eval(m), ((m >> v) & 1u) != 0) << "n=" << n << " v=" << v;
            }
        }
    }
}

TEST(MultiwordProps, CofactorMatchesPerMintermOracle) {
    sm_stream rng(1);
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 40; ++trial) {
            const truth_table f = random_table(n, rng);
            for (int v = 0; v < n; ++v) {
                for (bool value : {false, true}) {
                    const truth_table c = f.cofactor(v, value);
                    ASSERT_FALSE(c.depends_on(v));
                    for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
                        const std::uint32_t src =
                            value ? (m | (1u << v)) : (m & ~(1u << v));
                        ASSERT_EQ(c.eval(m), f.eval(src))
                            << "n=" << n << " v=" << v << " value=" << value
                            << " m=" << m;
                    }
                }
            }
        }
    }
}

TEST(MultiwordProps, SupportMaskIsSoundAndComplete) {
    sm_stream rng(2);
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 60; ++trial) {
            const truth_table f = random_table(n, rng);
            const std::uint32_t mask = f.support_mask();
            for (int v = 0; v < n; ++v) {
                // Oracle: v is in the support iff some minterm pair differing
                // only in v disagrees.
                bool oracle = false;
                for (std::uint32_t m = 0; m < f.num_minterms() && !oracle; ++m) {
                    if ((m >> v) & 1u) continue;
                    oracle = f.eval(m) != f.eval(m | (1u << v));
                }
                ASSERT_EQ(((mask >> v) & 1u) != 0, oracle) << "n=" << n << " v=" << v;
                ASSERT_EQ(f.depends_on(v), oracle);
            }
        }
    }
}

TEST(MultiwordProps, PermuteMatchesOracleAndRoundTrips) {
    sm_stream rng(3);
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 40; ++trial) {
            const truth_table f = random_table(n, rng);
            const std::vector<int> perm = random_perm(n, rng);
            const truth_table g = f.permute(perm);
            for (std::uint32_t dst = 0; dst < f.num_minterms(); ++dst) {
                std::uint32_t src = 0;
                for (int v = 0; v < n; ++v) {
                    if ((dst >> perm[static_cast<std::size_t>(v)]) & 1u) src |= 1u << v;
                }
                ASSERT_EQ(g.eval(dst), f.eval(src)) << "n=" << n << " dst=" << dst;
            }
            // Round trip through the inverse permutation.
            std::vector<int> inv(static_cast<std::size_t>(n));
            for (int v = 0; v < n; ++v) {
                inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(v)])] = v;
            }
            ASSERT_EQ(g.permute(inv), f);
        }
    }
}

TEST(MultiwordProps, NegateInputsIsAnInvolutionAndMatchesOracle) {
    sm_stream rng(4);
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 40; ++trial) {
            const truth_table f = random_table(n, rng);
            const std::uint32_t mask =
                static_cast<std::uint32_t>(rng.next()) & ((1u << n) - 1);
            const truth_table g = f.negate_inputs(mask);
            for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
                ASSERT_EQ(g.eval(m), f.eval(m ^ mask)) << "n=" << n << " m=" << m;
            }
            ASSERT_EQ(g.negate_inputs(mask), f);
        }
    }
}

TEST(MultiwordProps, IsopCoverRoundTripsWideFunctions) {
    sm_stream rng(7);
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 4; ++trial) {
            // Sparse ON-sets keep Quine–McCluskey fast at 8 variables while
            // still spanning several words.
            truth_table f(n);
            for (int i = 0; i < 24; ++i) {
                f.set(static_cast<std::uint32_t>(rng.next()) & ((1u << n) - 1),
                      true);
            }
            const cube_list cover = isop_cover(f);  // self-verifies
            ASSERT_EQ(cover.to_truth_table(), f);
        }
    }
}

}  // namespace
}  // namespace plee::bf

namespace plee::ee {
namespace {

using bf::splitmix64;
using bf::truth_table;
using bf::tt_words;

class sm_stream {
public:
    explicit sm_stream(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() { return splitmix64(state_++); }

private:
    std::uint64_t state_;
};

truth_table random_table(int n, sm_stream& rng) {
    tt_words words{};
    for (int w = 0; w < bf::words_for(n); ++w) words[w] = rng.next();
    return truth_table(n, words);
}

TEST(MultiwordTrigger, ExactTriggerMatchesScalarOracleOnWideMasters) {
    sm_stream rng(11);
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 30; ++trial) {
            const truth_table master = random_table(n, rng);
            for (std::uint32_t s : bf::support_subsets(n, 3)) {
                const truth_table word = exact_trigger_function(master, s);
                ASSERT_EQ(word, scalar::exact_trigger_function(master, s))
                    << "n=" << n << " support=" << s;
                ASSERT_EQ(covered_minterms(master, s, word),
                          scalar::covered_minterms(master, s, word));
            }
        }
    }
}

/// Wide masters with the structure real LUT7/8 gates have — uniform random
/// tables almost never have a constant cofactor over five free variables,
/// so they leave the trigger's word assembly unchecked.  AND/OR of
/// literals, thresholds and muxes under random input negations, plus the
/// >= 5-input functions of the lut8-datapath and lut6-dag generators.
std::vector<truth_table> structured_masters(sm_stream& rng) {
    std::vector<truth_table> shapes;
    for (int n : {7, 8}) {
        shapes.push_back(truth_table::from_function(n, [](std::uint32_t m) {
            return (m & 0x07) == 0x07 || (m & 0x18) == 0x18 || (m >> 5) == 0x07;
        }));
        shapes.push_back(truth_table::from_function(n, [](std::uint32_t m) {
            return (m & 0x03) != 0 && (m & 0x0c) != 0 && (m & 0x70) != 0;
        }));
        shapes.push_back(truth_table::from_function(
            n, [n](std::uint32_t m) { return std::popcount(m) * 2 > n; }));
        shapes.push_back(truth_table::from_function(n, [n](std::uint32_t m) {
            // x(n-1), x(n-2) select x0 & x1, x2 | x3, x4 or x5.
            switch (m >> (n - 2)) {
                case 0: return (m & 0x03) == 0x03;
                case 1: return (m & 0x0c) != 0;
                case 2: return ((m >> 4) & 1u) != 0;
                default: return ((m >> 5) & 1u) != 0;
            }
        }));
    }
    std::vector<truth_table> masters;
    for (const truth_table& shape : shapes) {
        for (int i = 0; i < 3; ++i) {
            masters.push_back(shape.negate_inputs(
                static_cast<std::uint32_t>(rng.next()) & ((1u << shape.num_vars()) - 1)));
        }
    }
    for (wl::scenario kind : {wl::scenario::lut8_datapath, wl::scenario::lut6_dag}) {
        const nl::netlist netlist = wl::generate(wl::scenario_params(kind, 120, 2026));
        std::size_t taken = 0;
        for (const nl::cell& c : netlist.cells()) {
            if (c.kind == nl::cell_kind::lut && c.function.num_vars() >= 5 &&
                !c.function.is_constant() && taken++ < 12) {
                masters.push_back(c.function);
            }
        }
    }
    return masters;
}

TEST(MultiwordTrigger, ExactTriggerMatchesScalarOracleOnStructuredMasters) {
    sm_stream rng(15);
    std::size_t pairs = 0;
    std::size_t non_zero = 0;
    for (const truth_table& master : structured_masters(rng)) {
        const int n = master.num_vars();
        for (std::uint32_t s : bf::support_subsets(n, n - 1)) {
            const truth_table word = exact_trigger_function(master, s);
            ASSERT_EQ(word, scalar::exact_trigger_function(master, s))
                << "n=" << n << " support=" << s << " master=" << master.to_string();
            ++pairs;
            if (!word.is_constant_zero()) ++non_zero;
        }
        // The full search agrees with the oracle's, supports up to n - 1.
        std::vector<int> arrivals;
        for (int v = 0; v < n; ++v) arrivals.push_back(static_cast<int>(rng.next() % 4));
        search_options opts;
        opts.max_support_size = n - 1;
        const std::vector<trigger_candidate> all =
            trigger_candidates(master, arrivals, opts);
        const std::optional<trigger_candidate> best =
            find_best_trigger(master, arrivals, opts);
        const scalar::search_result o = scalar::find_best_trigger(master, arrivals, opts);
        ASSERT_EQ(all.size(), o.all.size());
        for (std::size_t i = 0; i < all.size(); ++i) {
            ASSERT_EQ(all[i].function, o.all[i].function);
            ASSERT_EQ(all[i].covered_minterms, o.all[i].covered_minterms);
        }
        ASSERT_EQ(best.has_value(), o.best.has_value());
        if (best) {
            ASSERT_EQ(best->support, o.best->support);
        }
        ASSERT_TRUE(scalar::matches_oracle(best, all, o)) << master.to_string();
    }
    // Guard the draw: most supports of these masters must fire sometimes,
    // or the assembly of the trigger's bits goes unchecked again.
    EXPECT_GE(3 * non_zero, pairs) << non_zero << " of " << pairs;
}

TEST(MultiwordTrigger, ExactTriggerHandlesWideSupports) {
    // Supports with > 6 members: the trigger itself is a multiword table.
    sm_stream rng(12);
    for (int trial = 0; trial < 10; ++trial) {
        const truth_table master = random_table(8, rng);
        for (std::uint32_t s : {0x7fu, 0xbfu, 0xfeu}) {  // 7-member supports
            const truth_table word = exact_trigger_function(master, s);
            ASSERT_EQ(word.num_vars(), 7);
            ASSERT_EQ(word, scalar::exact_trigger_function(master, s));
        }
    }
}

TEST(MultiwordTrigger, CubeListTriggerMatchesScalarOracleOnWideMasters) {
    sm_stream rng(13);
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 4; ++trial) {
            // Structured masters keep the QM cover compact at 8 variables: a
            // threshold function plus random input negations.
            truth_table base = truth_table::from_function(n, [n](std::uint32_t m) {
                return std::popcount(m) * 2 > n;
            });
            base = base.negate_inputs(static_cast<std::uint32_t>(rng.next()) &
                                      ((1u << n) - 1));
            const bf::on_off_cover cover = bf::make_on_off_cover(base);
            for (std::uint32_t s : bf::support_subsets(n, 3)) {
                ASSERT_EQ(cube_list_trigger_function(base, cover, s),
                          scalar::cube_list_trigger_function(base, cover, s))
                    << "n=" << n << " support=" << s;
            }
        }
    }
}

TEST(MultiwordTrigger, FullSearchMatchesScalarKernelsOnWideMasters) {
    sm_stream rng(14);
    const search_options opts;
    for (int n : {7, 8}) {
        for (int trial = 0; trial < 12; ++trial) {
            const truth_table master = random_table(n, rng);
            std::vector<int> arrivals;
            for (int v = 0; v < n; ++v) {
                arrivals.push_back(static_cast<int>(rng.next() % 5));
            }
            const std::vector<trigger_candidate> all =
                trigger_candidates(master, arrivals, opts);
            const std::optional<trigger_candidate> best =
                find_best_trigger(master, arrivals, opts);
            const scalar::search_result s = scalar::find_best_trigger(master, arrivals, opts);
            ASSERT_EQ(all.size(), s.all.size()) << "n=" << n;
            for (std::size_t i = 0; i < all.size(); ++i) {
                ASSERT_EQ(all[i].support, s.all[i].support);
                ASSERT_EQ(all[i].function, s.all[i].function);
                ASSERT_EQ(all[i].covered_minterms, s.all[i].covered_minterms);
                ASSERT_EQ(all[i].cost, s.all[i].cost);
            }
            ASSERT_EQ(best.has_value(), s.best.has_value());
            if (best) {
                ASSERT_EQ(best->support, s.best->support);
                ASSERT_EQ(best->function, s.best->function);
            }
            ASSERT_TRUE(scalar::matches_oracle(best, all, s)) << "n=" << n;
        }
    }
}

TEST(MultiwordTrigger, PrunedSearchMatchesTheOracleUnderMixedOptions) {
    // The mixed-options sweep: masters of 2 to 8 inputs (a uniform table
    // for a drawn arity up to 6, else one of the structured masters above,
    // 5 to 8 inputs) under drawn options — both
    // methods (cube-list up to 6 inputs, where the QM cover stays cheap),
    // arrival gain and weighting both ways, thresholds, support sizes up to
    // n — with arrivals drawn from a few levels, so many masters have both
    // early pins and pins at Mmax.  The pruned winner must be the full
    // sweep's, field by field, and the candidate list the sweep's list.
    sm_stream rng(16);
    const std::vector<truth_table> wide = structured_masters(rng);
    std::size_t winners = 0;
    std::size_t pruned = 0;
    constexpr int k_trials = 1500;
    for (int trial = 0; trial < k_trials; ++trial) {
        const int n = 2 + static_cast<int>(rng.next() % 7);
        const truth_table master =
            n <= bf::k_word_vars
                ? truth_table(n, rng.next() & bf::truth_table::constant(n, true).bits())
                : wide[rng.next() % wide.size()];
        std::vector<int> arrivals;
        for (int v = 0; v < master.num_vars(); ++v) {
            arrivals.push_back(static_cast<int>(rng.next() % 3) * 2);
        }
        const std::uint64_t draw = rng.next();
        search_options opts;
        opts.method = (draw & 1) && master.num_vars() <= bf::k_word_vars
                          ? trigger_method::cube_list
                          : trigger_method::exact;
        opts.require_arrival_gain = (draw & 2) != 0;
        opts.weight_by_arrival = (draw & 4) != 0;
        opts.cost_threshold = (draw >> 3) % 3 * 60.0;
        opts.max_support_size = 1 + static_cast<int>((draw >> 8) % master.num_vars());
        const std::optional<trigger_candidate> best =
            find_best_trigger(master, arrivals, opts);
        ASSERT_TRUE(scalar::matches_oracle(
            best, trigger_candidates(master, arrivals, opts),
            scalar::find_best_trigger(master, arrivals, opts)))
            << "trial=" << trial << " master=" << master.to_string();
        if (best) ++winners;
        const int latest = *std::max_element(arrivals.begin(), arrivals.end());
        if (opts.require_arrival_gain &&
            std::count(arrivals.begin(), arrivals.end(), latest) <
                static_cast<std::ptrdiff_t>(arrivals.size())) {
            ++pruned;
        }
    }
    // Guard the draw: both the pruned path and winners must be common.
    EXPECT_GE(5 * winners, static_cast<std::size_t>(k_trials)) << winners;
    EXPECT_GE(4 * pruned, static_cast<std::size_t>(k_trials)) << pruned;
}

}  // namespace
}  // namespace plee::ee
