// trigger_oracle.hpp — the per-minterm reference for the trigger search.
//
// The scalar trigger kernels, header-only: every trigger bit comes from
// eval() calls over the master's minterms, with no word folds, shifts or
// swaps, so they share no code with the word-parallel kernels of
// ee/trigger_search.cpp they check.  find_best_trigger here is the search
// loop over those kernels: the same candidate filters, Equation 1 cost and
// tie-breaks, computed the slow way over every support.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bool/cube_list.hpp"
#include "bool/support.hpp"
#include "bool/truth_table.hpp"
#include "ee/trigger_search.hpp"

namespace plee::ee::scalar {

/// Expands a compressed assignment of the support pins into a full-width
/// minterm (non-support pins 0).
inline std::uint32_t spread(std::uint32_t packed, const std::vector<int>& members) {
    std::uint32_t full = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        if ((packed >> i) & 1u) full |= 1u << members[i];
    }
    return full;
}

/// One bit per support assignment: every completion of the free variables
/// is evaluated and compared with the first.
inline bf::truth_table exact_trigger_function(const bf::truth_table& master,
                                              std::uint32_t support) {
    const std::vector<int> members = bf::support_members(support);
    const int k = static_cast<int>(members.size());
    if (k == 0 || k >= master.num_vars() || (support >> master.num_vars()) != 0) {
        throw std::invalid_argument("scalar::exact_trigger_function: bad support");
    }
    std::vector<int> free_vars;
    for (int v = 0; v < master.num_vars(); ++v) {
        if (!(support & (1u << v))) free_vars.push_back(v);
    }
    bf::truth_table trig(k);
    for (std::uint32_t a = 0; a < (1u << k); ++a) {
        const std::uint32_t base = spread(a, members);
        const bool first = master.eval(base);
        bool constant = true;
        for (std::uint32_t b = 1; b < (1u << free_vars.size()) && constant; ++b) {
            std::uint32_t m = base;
            for (std::size_t i = 0; i < free_vars.size(); ++i) {
                if ((b >> i) & 1u) m |= 1u << free_vars[i];
            }
            constant = master.eval(m) == first;
        }
        if (constant) trig.set(a, true);
    }
    return trig;
}

/// One bit per support assignment contained in a cover cube confined to
/// the support.
inline bf::truth_table cube_list_trigger_function(const bf::truth_table& master,
                                                  const bf::on_off_cover& cover,
                                                  std::uint32_t support) {
    (void)master;
    const std::vector<int> members = bf::support_members(support);
    const int k = static_cast<int>(members.size());
    bf::truth_table trig(k);
    for (const bf::cube_list* cubes : {&cover.on, &cover.off}) {
        const bf::cube_list confined = cubes->restricted_to_support(support);
        for (const bf::cube& c : confined.cubes()) {
            for (std::uint32_t a = 0; a < (1u << k); ++a) {
                if (c.contains(spread(a, members))) trig.set(a, true);
            }
        }
    }
    return trig;
}

/// Master minterms whose support projection satisfies the trigger, counted
/// one by one.
inline int covered_minterms(const bf::truth_table& master, std::uint32_t support,
                            const bf::truth_table& trigger) {
    const std::vector<int> members = bf::support_members(support);
    int covered = 0;
    for (std::uint32_t m = 0; m < master.num_minterms(); ++m) {
        std::uint32_t packed = 0;
        for (std::size_t i = 0; i < members.size(); ++i) {
            if ((m >> members[i]) & 1u) packed |= 1u << i;
        }
        if (trigger.eval(packed)) ++covered;
    }
    return covered;
}

/// The unpruned sweep's result: the winner, and every support's candidate
/// in bf::support_subsets order.
struct search_result {
    std::optional<trigger_candidate> best;
    std::vector<trigger_candidate> all;
};

/// The reference for ee::find_best_trigger (`best`) and
/// ee::trigger_candidates (`all`) over the kernels above.  Every support is
/// scored before the arrival-gain filter, so it checks the pruned search's
/// skip of supports with a pin at Mmax.
inline search_result find_best_trigger(const bf::truth_table& master,
                                       const std::vector<int>& pin_arrivals,
                                       const search_options& options = {}) {
    search_result result;
    if (master.num_vars() < 2 || master.is_constant()) return result;
    const int master_max_arrival =
        *std::max_element(pin_arrivals.begin(), pin_arrivals.end());
    std::optional<bf::on_off_cover> cover;
    if (options.method == trigger_method::cube_list) {
        cover = bf::make_on_off_cover(master);
    }
    for (std::uint32_t support :
         bf::support_subsets(master.num_vars(), options.max_support_size)) {
        trigger_candidate cand;
        cand.support = support;
        cand.function = options.method == trigger_method::exact
                            ? exact_trigger_function(master, support)
                            : cube_list_trigger_function(master, *cover, support);
        if (cand.function.is_constant_zero()) continue;
        cand.covered_minterms = covered_minterms(master, support, cand.function);
        cand.coverage_percent = 100.0 * cand.covered_minterms /
                                static_cast<double>(master.num_minterms());
        if (cand.covered_minterms == static_cast<int>(master.num_minterms())) continue;
        cand.master_max_arrival = master_max_arrival;
        for (int v : bf::support_members(support)) {
            cand.trigger_max_arrival = std::max(
                cand.trigger_max_arrival, pin_arrivals[static_cast<std::size_t>(v)]);
        }
        cand.cost = options.weight_by_arrival
                        ? equation1_cost(cand.coverage_percent, cand.master_max_arrival,
                                         cand.trigger_max_arrival)
                        : cand.coverage_percent;
        result.all.push_back(cand);
        if (options.require_arrival_gain &&
            cand.trigger_max_arrival >= cand.master_max_arrival) {
            continue;
        }
        if (cand.cost <= options.cost_threshold) continue;
        const bool better =
            !result.best || cand.cost > result.best->cost ||
            (cand.cost == result.best->cost &&
             (cand.covered_minterms > result.best->covered_minterms ||
              (cand.covered_minterms == result.best->covered_minterms &&
               std::popcount(cand.support) < std::popcount(result.best->support))));
        if (better) result.best = cand;
    }
    return result;
}

/// The first field in which two candidates differ, or empty when none does.
inline std::string candidate_diff(const trigger_candidate& got,
                                  const trigger_candidate& want) {
    if (got.support != want.support) return "support";
    if (got.function != want.function) return "function";
    if (got.covered_minterms != want.covered_minterms) return "covered_minterms";
    if (got.coverage_percent != want.coverage_percent) return "coverage_percent";
    if (got.master_max_arrival != want.master_max_arrival) return "master_max_arrival";
    if (got.trigger_max_arrival != want.trigger_max_arrival) return "trigger_max_arrival";
    if (got.cost != want.cost) return "cost";
    return {};
}

/// ee::find_best_trigger's winner against the sweep's `best` and
/// ee::trigger_candidates' list against its `all`, field by field.
inline ::testing::AssertionResult matches_oracle(
    const std::optional<trigger_candidate>& best,
    const std::vector<trigger_candidate>& all, const search_result& want) {
    if (best.has_value() != want.best.has_value()) {
        return ::testing::AssertionFailure()
               << "winner " << (best ? "found" : "missing") << ", oracle's "
               << (want.best ? "found" : "missing");
    }
    if (best) {
        const std::string diff = candidate_diff(*best, *want.best);
        if (!diff.empty()) {
            return ::testing::AssertionFailure()
                   << "winner differs in " << diff << " (support " << best->support
                   << ", oracle's " << want.best->support << ")";
        }
    }
    if (all.size() != want.all.size()) {
        return ::testing::AssertionFailure() << all.size() << " candidates, oracle's "
                                             << want.all.size();
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
        const std::string diff = candidate_diff(all[i], want.all[i]);
        if (!diff.empty()) {
            return ::testing::AssertionFailure()
                   << "candidate " << i << " differs in " << diff;
        }
    }
    return ::testing::AssertionSuccess();
}

}  // namespace plee::ee::scalar
