// Exhaustive equivalence of the word-parallel trigger kernels against the
// scalar reference of trigger_oracle.hpp: every LUT4 master (all 2^16
// functions) under every candidate support set, for both the exact and the
// cube-list derivations, plus the coverage counter.  This is the ground
// truth that lets the hot path stay branch-free word ops.

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <vector>

#include "bool/cube_list.hpp"
#include "bool/support.hpp"
#include "ee/trigger_search.hpp"
#include "trigger_oracle.hpp"

namespace plee::ee {
namespace {

TEST(WordParallel, ExactTriggerMatchesScalarOnAllLut4Masters) {
    for (std::uint32_t f = 0; f <= 0xffffu; ++f) {
        const bf::truth_table master(4, f);
        for (std::uint32_t s : bf::support_subsets(4, 3)) {
            const bf::truth_table word = exact_trigger_function(master, s);
            const bf::truth_table ref = scalar::exact_trigger_function(master, s);
            ASSERT_EQ(word, ref) << "master=" << f << " support=" << s;
        }
    }
}

TEST(WordParallel, CoveredMintermsMatchesScalarOnAllLut4Masters) {
    for (std::uint32_t f = 0; f <= 0xffffu; ++f) {
        const bf::truth_table master(4, f);
        for (std::uint32_t s : bf::support_subsets(4, 3)) {
            const bf::truth_table trig = exact_trigger_function(master, s);
            ASSERT_EQ(covered_minterms(master, s, trig),
                      scalar::covered_minterms(master, s, trig))
                << "master=" << f << " support=" << s;
        }
    }
}

TEST(WordParallel, CubeListTriggerMatchesScalarOnAllLut4Masters) {
    for (std::uint32_t f = 0; f <= 0xffffu; ++f) {
        const bf::truth_table master(4, f);
        const bf::on_off_cover cover = bf::make_on_off_cover(master);
        for (std::uint32_t s : bf::support_subsets(4, 3)) {
            const bf::truth_table word = cube_list_trigger_function(master, cover, s);
            const bf::truth_table ref =
                scalar::cube_list_trigger_function(master, cover, s);
            ASSERT_EQ(word, ref) << "master=" << f << " support=" << s;
        }
    }
}

TEST(WordParallel, FullSearchMatchesScalarKernels) {
    // The whole driver — candidate list, coverage, Equation 1, best pick —
    // must agree between kernel families on a large random master stream.
    std::uint64_t state = 2026;
    const search_options opts;
    for (int trial = 0; trial < 2000; ++trial) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const bf::truth_table master(4, state & 0xffff);
        if (master.support_size() < 2) continue;
        const std::vector<int> arrivals = {3, 1, 2, 0};
        const std::vector<trigger_candidate> all =
            trigger_candidates(master, arrivals, opts);
        const std::optional<trigger_candidate> best =
            find_best_trigger(master, arrivals, opts);
        const scalar::search_result s = scalar::find_best_trigger(master, arrivals, opts);
        ASSERT_EQ(all.size(), s.all.size());
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
        ASSERT_TRUE(scalar::matches_oracle(best, all, s)) << "master=" << master.to_string();
    }
}

TEST(WordParallel, FiveAndSixVariableMastersMatchScalar) {
    // The kernels are generic over the 6-variable space, not just LUT4.
    std::uint64_t state = 77;
    for (int trial = 0; trial < 300; ++trial) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        for (int n = 5; n <= 6; ++n) {
            const std::uint64_t mask =
                n == 6 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (1u << n)) - 1);
            const bf::truth_table master(n, state & mask);
            for (std::uint32_t s : bf::support_subsets(n, n - 1)) {
                const bf::truth_table word = exact_trigger_function(master, s);
                ASSERT_EQ(word, scalar::exact_trigger_function(master, s))
                    << "n=" << n << " support=" << s;
                ASSERT_EQ(covered_minterms(master, s, word),
                          scalar::covered_minterms(master, s, word));
            }
        }
    }
}

}  // namespace
}  // namespace plee::ee
