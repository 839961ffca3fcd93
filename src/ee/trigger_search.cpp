#include "ee/trigger_search.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "bool/support.hpp"

namespace plee::ee {

namespace {

void check_support(const bf::truth_table& master, std::uint32_t support,
                   const char* who) {
    const int k = std::popcount(support);
    if (k == 0 || k >= master.num_vars() ||
        (support >> master.num_vars()) != 0) {
        throw std::invalid_argument(std::string(who) +
                                    ": support must be a non-empty proper "
                                    "subset of the master's inputs");
    }
}

/// Expands a compressed assignment of the support pins into a full-width
/// minterm (non-support pins 0).
std::uint32_t spread(std::uint32_t packed, const std::vector<int>& members) {
    std::uint32_t full = 0;
    for (std::size_t i = 0; i < members.size(); ++i) {
        if ((packed >> i) & 1u) full |= 1u << members[i];
    }
    return full;
}

}  // namespace

bf::truth_table exact_trigger_function(const bf::truth_table& master,
                                       std::uint32_t support) {
    check_support(master, support, "exact_trigger_function");
    // A support assignment is determined exactly when the cofactor over the
    // free variables is constant 1 (the conjunctive fold of f survives) or
    // constant 0 (the conjunctive fold of ~f survives).
    const int n = master.num_vars();
    if (n <= bf::k_word_vars) {
        // Single-word fast path: both polarity folds fused into one pass and
        // the shrink compaction, all on two register words — this is the
        // PR 1 hot kernel, kept allocation- and call-free so the multiword
        // generalization costs the LUT4 sweep nothing.
        const std::uint64_t full = n == bf::k_word_vars
                                       ? ~std::uint64_t{0}
                                       : ((std::uint64_t{1} << (1u << n)) - 1);
        std::uint64_t pos = master.bits();
        std::uint64_t neg = ~pos & full;
        for (int v = 0; v < n; ++v) {
            if ((support >> v) & 1u) continue;
            const std::uint64_t m = bf::k_var_mask[v];
            const int s = 1 << v;
            std::uint64_t lo = pos & ~m;
            lo |= lo << s;
            std::uint64_t hi = pos & m;
            hi |= hi >> s;
            pos = lo & hi;
            lo = neg & ~m;
            lo |= lo << s;
            hi = neg & m;
            hi |= hi >> s;
            neg = lo & hi;
        }
        std::uint64_t det = pos | neg;
        int target = 0;
        for (int v = 0; v < n; ++v) {
            if (!((support >> v) & 1u)) continue;
            for (int j = v - 1; j >= target; --j) det = bf::swap_adjacent_word(det, j);
            ++target;
        }
        const std::uint64_t full_k =
            target == bf::k_word_vars
                ? ~std::uint64_t{0}
                : ((std::uint64_t{1} << (1u << target)) - 1);
        return bf::truth_table(target, det & full_k);
    }
    const bf::truth_table determined = master.fold_free_vars(support, true) |
                                       (~master).fold_free_vars(support, true);
    return determined.shrink_to(support);
}

bf::truth_table cube_list_trigger_function(const bf::truth_table& master,
                                           const bf::on_off_cover& cover,
                                           std::uint32_t support) {
    check_support(master, support, "cube_list_trigger_function");
    const std::vector<int> members = bf::support_members(support);
    const int k = static_cast<int>(members.size());

    // "Since 2 cubes in Table 2 depend only upon master inputs a and b ...
    // a coverage of 50% is computed for the trigger function": each cube of
    // either cover that is confined to the support becomes a product of
    // projection masks over the compressed pins — one AND per bound literal.
    if (k <= bf::k_word_vars) {
        // Single-word fast path: one register AND per literal, as pre-
        // multiword — the dominant (<= 6 pin) case pays no truth_table
        // temporaries.
        const std::uint64_t full_k =
            k == bf::k_word_vars ? ~std::uint64_t{0}
                                 : ((std::uint64_t{1} << (1u << k)) - 1);
        std::uint64_t bits = 0;
        auto absorb = [&](const bf::cube_list& cubes) {
            const bf::cube_list confined = cubes.restricted_to_support(support);
            for (const bf::cube& c : confined.cubes()) {
                std::uint64_t t = full_k;
                for (int i = 0; i < k; ++i) {
                    const int v = members[static_cast<std::size_t>(i)];
                    if (!((c.care_mask() >> v) & 1u)) continue;
                    t &= ((c.value_mask() >> v) & 1u) ? bf::k_var_mask[i]
                                                      : ~bf::k_var_mask[i];
                }
                bits |= t;
            }
        };
        absorb(cover.on);
        absorb(cover.off);
        return bf::truth_table(k, bits & full_k);
    }
    // Multiword supports (> 6 compressed pins): the same product, built
    // word-parallel over truth-table projections.
    bf::truth_table trig(k);
    auto absorb = [&](const bf::cube_list& cubes) {
        const bf::cube_list confined = cubes.restricted_to_support(support);
        for (const bf::cube& c : confined.cubes()) {
            bf::truth_table t = bf::truth_table::constant(k, true);
            for (int i = 0; i < k; ++i) {
                const int v = members[static_cast<std::size_t>(i)];
                if (!((c.care_mask() >> v) & 1u)) continue;
                const bf::truth_table x = bf::truth_table::variable(k, i);
                t = t & (((c.value_mask() >> v) & 1u) ? x : ~x);
            }
            trig = trig | t;
        }
    };
    absorb(cover.on);
    absorb(cover.off);
    return trig;
}

int covered_minterms(const bf::truth_table& master, std::uint32_t support,
                     const bf::truth_table& trigger) {
    if (trigger.num_vars() != std::popcount(support)) {
        throw std::invalid_argument("covered_minterms: trigger arity != |support|");
    }
    if ((support >> master.num_vars()) != 0) {
        throw std::invalid_argument("covered_minterms: support outside the "
                                    "master's inputs");
    }
    // Every firing support assignment covers exactly one completion per
    // assignment of the free variables: popcount times 2^(free vars).
    return trigger.count_ones() << (master.num_vars() - trigger.num_vars());
}

namespace scalar {

bf::truth_table exact_trigger_function(const bf::truth_table& master,
                                       std::uint32_t support) {
    check_support(master, support, "scalar::exact_trigger_function");
    const std::vector<int> members = bf::support_members(support);
    const int k = static_cast<int>(members.size());
    // Free (non-support) variables of the master.
    std::vector<int> free_vars;
    for (int v = 0; v < master.num_vars(); ++v) {
        if (!(support & (1u << v))) free_vars.push_back(v);
    }

    bf::truth_table trig(k);
    for (std::uint32_t a = 0; a < (1u << k); ++a) {
        const std::uint32_t base = spread(a, members);
        // Constant cofactor test: enumerate all completions of the free vars.
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

bf::truth_table cube_list_trigger_function(const bf::truth_table& master,
                                           const bf::on_off_cover& cover,
                                           std::uint32_t support) {
    check_support(master, support, "scalar::cube_list_trigger_function");
    const std::vector<int> members = bf::support_members(support);
    const int k = static_cast<int>(members.size());

    bf::truth_table trig(k);
    auto absorb = [&](const bf::cube_list& cubes) {
        const bf::cube_list confined = cubes.restricted_to_support(support);
        for (const bf::cube& c : confined.cubes()) {
            for (std::uint32_t a = 0; a < (1u << k); ++a) {
                if (c.contains(spread(a, members))) trig.set(a, true);
            }
        }
    };
    absorb(cover.on);
    absorb(cover.off);
    return trig;
}

int covered_minterms(const bf::truth_table& master, std::uint32_t support,
                     const bf::truth_table& trigger) {
    const std::vector<int> members = bf::support_members(support);
    if (trigger.num_vars() != static_cast<int>(members.size())) {
        throw std::invalid_argument("covered_minterms: trigger arity != |support|");
    }
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

}  // namespace scalar

double equation1_cost(double coverage_percent, int master_max_arrival,
                      int trigger_max_arrival) {
    return coverage_percent * (static_cast<double>(master_max_arrival) + 1.0) /
           (static_cast<double>(trigger_max_arrival) + 1.0);
}

search_result find_best_trigger(const bf::truth_table& master,
                                const std::vector<int>& pin_arrivals,
                                const search_options& options) {
    if (static_cast<int>(pin_arrivals.size()) != master.num_vars()) {
        throw std::invalid_argument("find_best_trigger: arrival count != arity");
    }
    search_result result;
    if (master.num_vars() < 2 || master.is_constant()) return result;

    const std::uint32_t all_pins = (1u << master.num_vars()) - 1;
    int master_max_arrival = 0;
    for (int a : pin_arrivals) master_max_arrival = std::max(master_max_arrival, a);

    // The cube covers are shared across all 14 support sets.
    std::optional<bf::on_off_cover> cover;
    if (options.method == trigger_method::cube_list) {
        cover = bf::make_on_off_cover(master);
    }

    const std::vector<std::uint32_t>& supports =
        bf::cached_support_subsets(all_pins, options.max_support_size);
    result.all.reserve(supports.size());
    for (std::uint32_t support : supports) {
        trigger_candidate cand;
        cand.support = support;
        if (options.method == trigger_method::exact) {
            cand.function = options.use_scalar_kernels
                                ? scalar::exact_trigger_function(master, support)
                                : exact_trigger_function(master, support);
        } else {
            cand.function = options.use_scalar_kernels
                                ? scalar::cube_list_trigger_function(master, *cover,
                                                                     support)
                                : cube_list_trigger_function(master, *cover, support);
        }
        if (cand.function.is_constant_zero()) continue;

        cand.covered_minterms =
            options.use_scalar_kernels
                ? scalar::covered_minterms(master, support, cand.function)
                : covered_minterms(master, support, cand.function);
        cand.coverage_percent =
            100.0 * cand.covered_minterms / static_cast<double>(master.num_minterms());
        // Full coverage means the master never needed the other inputs at
        // all — a synthesis artifact, not an Early Evaluation opportunity.
        if (cand.covered_minterms == static_cast<int>(master.num_minterms())) continue;

        cand.master_max_arrival = master_max_arrival;
        cand.trigger_max_arrival = 0;
        for (std::uint32_t rest = support; rest != 0; rest &= rest - 1) {
            const int v = std::countr_zero(rest);
            cand.trigger_max_arrival =
                std::max(cand.trigger_max_arrival, pin_arrivals[static_cast<std::size_t>(v)]);
        }
        cand.cost = options.weight_by_arrival
                        ? equation1_cost(cand.coverage_percent,
                                         cand.master_max_arrival,
                                         cand.trigger_max_arrival)
                        : cand.coverage_percent;
        result.all.push_back(cand);

        if (options.require_arrival_gain &&
            cand.trigger_max_arrival >= cand.master_max_arrival) {
            continue;  // recorded for diagnostics, never implemented
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

}  // namespace plee::ee
