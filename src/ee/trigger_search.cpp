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

/// The single-word kernel.  pos (resp. neg) marks the rows whose cofactor
/// over the variables folded so far is constant 1 (resp. 0); one shift/AND
/// per free in-word variable below n_in folds it out of both, and adjacent
/// swaps then compact the support's in-word members, ascending, into the
/// low 2^k_in bits of the result.
std::uint64_t fold_and_compact(std::uint64_t pos, std::uint64_t neg, int n_in,
                               std::uint32_t support) {
    for (int v = 0; v < n_in; ++v) {
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
    for (int v = 0; v < n_in; ++v) {
        if (!((support >> v) & 1u)) continue;
        for (int j = v - 1; j >= target; --j) det = bf::swap_adjacent_word(det, j);
        ++target;
    }
    return target == bf::k_word_vars ? det
                                     : det & ((std::uint64_t{1} << (1u << target)) - 1);
}

/// The exact trigger of `support` in truth-table layout over its members.
/// Word-level variables (6 and 7) select the word, so a free one folds away
/// with one AND of word pairs in both polarities; the single-word kernel
/// then runs on each word left, one per assignment a_word of the support's
/// word-level members, and its 2^k_in bits land at a_word << k_in: in-word
/// members take the low bits and word members the high ones, ascending.
bf::tt_words trigger_words(const bf::truth_table& master, std::uint32_t support) {
    const int n = master.num_vars();
    bf::tt_words out{};
    if (n <= bf::k_word_vars) {
        const std::uint64_t full = n == bf::k_word_vars
                                       ? ~std::uint64_t{0}
                                       : ((std::uint64_t{1} << (1u << n)) - 1);
        out[0] = fold_and_compact(master.bits(), ~master.bits() & full, n, support);
        return out;
    }
    const int nw = master.num_words();
    bf::tt_words pos = master.words();
    bf::tt_words neg;
    for (int w = 0; w < nw; ++w) neg[w] = ~pos[w];
    const std::uint32_t word_support = support >> bf::k_word_vars;
    for (int ws = 1; ws < nw; ws <<= 1) {
        if (word_support & ws) continue;
        for (int w = 0; w < nw; ++w) {
            if (w & ws) continue;
            pos[w] &= pos[w | ws];
            neg[w] &= neg[w | ws];
        }
    }
    const int k_in = std::popcount(support & ((1u << bf::k_word_vars) - 1));
    std::uint32_t a_word = 0;
    for (int w = 0; w < nw; ++w) {
        if (w & ~word_support) continue;  // a free word-level variable is 1
        const std::uint32_t at = a_word++ << k_in;
        out[at >> 6] |= fold_and_compact(pos[w], neg[w], bf::k_word_vars, support)
                        << (at & 63);
    }
    return out;
}

/// Mmax, the latest arrival over the master's pins, after checking that
/// there is one depth per pin and none is negative.
int latest_arrival(const bf::truth_table& master, const std::vector<int>& pin_arrivals,
                   const char* who) {
    if (static_cast<int>(pin_arrivals.size()) != master.num_vars()) {
        throw std::invalid_argument(std::string(who) + ": arrival count != arity");
    }
    int latest = 0;
    for (int a : pin_arrivals) {
        if (a < 0) throw std::invalid_argument(std::string(who) + ": negative arrival");
        latest = std::max(latest, a);
    }
    return latest;
}

/// The candidate of one support, scored with Equation 1; none when its
/// trigger never fires or covers every minterm.  `cover` is the master's
/// cover for the cube-list method and null for the exact one.
std::optional<trigger_candidate> candidate_for(const bf::truth_table& master,
                                               const bf::on_off_cover* cover,
                                               const std::vector<int>& pin_arrivals,
                                               int master_max_arrival,
                                               std::uint32_t support,
                                               bool weight_by_arrival) {
    const int n = master.num_vars();
    const int k = std::popcount(support);
    const bf::tt_words trigger =
        cover == nullptr ? trigger_words(master, support)
                         : cube_list_trigger_function(master, *cover, support).words();
    int ones = 0;
    for (int w = 0; w < bf::words_for(k); ++w) ones += std::popcount(trigger[w]);
    // Every firing support assignment covers one completion per assignment
    // of the free variables.  Full coverage means the master never needed
    // the other inputs at all — a synthesis artifact, not an Early
    // Evaluation opportunity.
    const int covered = ones << (n - k);
    if (ones == 0 || covered == static_cast<int>(master.num_minterms())) {
        return std::nullopt;
    }
    int trigger_max_arrival = 0;
    for (std::uint32_t rest = support; rest != 0; rest &= rest - 1) {
        const int v = std::countr_zero(rest);
        trigger_max_arrival =
            std::max(trigger_max_arrival, pin_arrivals[static_cast<std::size_t>(v)]);
    }
    const double coverage_percent =
        100.0 * covered / static_cast<double>(master.num_minterms());
    const double cost = weight_by_arrival ? equation1_cost(coverage_percent,
                                                           master_max_arrival,
                                                           trigger_max_arrival)
                                          : coverage_percent;
    return trigger_candidate{support, bf::truth_table(k, trigger), covered,
                             coverage_percent, master_max_arrival,
                             trigger_max_arrival, cost};
}

/// The winner's order: the higher cost, then more covered minterms, then
/// the smaller support.
bool outranks(const trigger_candidate& a, const trigger_candidate& b) {
    return a.cost > b.cost ||
           (a.cost == b.cost &&
            (a.covered_minterms > b.covered_minterms ||
             (a.covered_minterms == b.covered_minterms &&
              std::popcount(a.support) < std::popcount(b.support))));
}

}  // namespace

bf::truth_table exact_trigger_function(const bf::truth_table& master,
                                       std::uint32_t support) {
    check_support(master, support, "exact_trigger_function");
    return bf::truth_table(std::popcount(support), trigger_words(master, support));
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

double equation1_cost(double coverage_percent, int master_max_arrival,
                      int trigger_max_arrival) {
    return coverage_percent * (static_cast<double>(master_max_arrival) + 1.0) /
           (static_cast<double>(trigger_max_arrival) + 1.0);
}

std::optional<trigger_candidate> find_best_trigger(const bf::truth_table& master,
                                                   const std::vector<int>& pin_arrivals,
                                                   const search_options& options) {
    const int master_max_arrival =
        latest_arrival(master, pin_arrivals, "find_best_trigger");
    const int n = master.num_vars();
    if (n < 2 || master.is_constant()) return std::nullopt;

    // Tmax < Mmax holds exactly for the supports inside the early pins.
    std::uint32_t early = (1u << n) - 1;
    if (options.require_arrival_gain) {
        early = 0;
        for (int v = 0; v < n; ++v) {
            if (pin_arrivals[static_cast<std::size_t>(v)] < master_max_arrival) {
                early |= 1u << v;
            }
        }
        if (early == 0) return std::nullopt;
    }

    std::optional<bf::on_off_cover> cover;
    std::optional<trigger_candidate> best;
    for (std::uint32_t support : bf::support_subsets(n, options.max_support_size)) {
        if ((support & ~early) != 0) continue;
        if (options.method == trigger_method::cube_list && !cover) {
            cover = bf::make_on_off_cover(master);
        }
        std::optional<trigger_candidate> cand =
            candidate_for(master, cover ? &*cover : nullptr, pin_arrivals,
                          master_max_arrival, support, options.weight_by_arrival);
        if (!cand || cand->cost <= options.cost_threshold) continue;
        if (!best || outranks(*cand, *best)) best = std::move(cand);
    }
    return best;
}

std::vector<trigger_candidate> trigger_candidates(const bf::truth_table& master,
                                                  const std::vector<int>& pin_arrivals,
                                                  const search_options& options) {
    const int master_max_arrival =
        latest_arrival(master, pin_arrivals, "trigger_candidates");
    std::vector<trigger_candidate> all;
    const int n = master.num_vars();
    if (n < 2 || master.is_constant()) return all;

    // The cube covers are shared across all the support sets.
    std::optional<bf::on_off_cover> cover;
    if (options.method == trigger_method::cube_list) {
        cover = bf::make_on_off_cover(master);
    }
    const std::vector<std::uint32_t>& supports =
        bf::support_subsets(n, options.max_support_size);
    all.reserve(supports.size());
    for (std::uint32_t support : supports) {
        std::optional<trigger_candidate> cand =
            candidate_for(master, cover ? &*cover : nullptr, pin_arrivals,
                          master_max_arrival, support, options.weight_by_arrival);
        if (cand) all.push_back(std::move(*cand));
    }
    return all;
}

}  // namespace plee::ee
