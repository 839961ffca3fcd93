#include "bool/truth_table.hpp"

#include <bit>
#include <stdexcept>

namespace plee::bf {

namespace {

void check_arity(int num_vars) {
    if (num_vars < 0 || num_vars > k_max_vars) {
        throw std::invalid_argument("truth_table: arity must be in [0, 8], got " +
                                    std::to_string(num_vars));
    }
}

/// Multiword adjacent-variable exchange.  Three regimes:
///  * j <= 4 — both variables live inside each word: per-word PMask swap;
///  * j == 5 — variable 5 is the high half of a word, variable 6 is word-
///    index bit 0: exchange the high half of each even word with the low
///    half of its odd partner;
///  * j >= 6 — both variables are word-index bits: swap the words whose
///    index bits (j-6, j-5) read (1, 0) with their (0, 1) partners.
void swap_adjacent(tt_words& x, int j, int nw) {
    if (j < k_word_vars - 1) {
        for (int w = 0; w < nw; ++w) x[w] = swap_adjacent_word(x[w], j);
    } else if (j == k_word_vars - 1) {
        for (int w = 0; w + 1 < nw; w += 2) {
            const std::uint64_t lo = x[w];
            const std::uint64_t hi = x[w + 1];
            x[w] = (lo & 0x00000000FFFFFFFFull) | (hi << 32);
            x[w + 1] = (hi & 0xFFFFFFFF00000000ull) | (lo >> 32);
        }
    } else {
        const int lo_bit = 1 << (j - k_word_vars);
        const int hi_bit = lo_bit << 1;
        for (int w = 0; w < nw; ++w) {
            if ((w & lo_bit) != 0 && (w & hi_bit) == 0) {
                std::swap(x[w], x[w ^ lo_bit ^ hi_bit]);
            }
        }
    }
}

}  // namespace

truth_table::truth_table(int num_vars) : num_vars_(num_vars) {
    check_arity(num_vars);
}

truth_table::truth_table(int num_vars, std::uint64_t bits) : num_vars_(num_vars) {
    check_arity(num_vars);
    if ((bits & ~word0_mask()) != 0) {
        throw std::invalid_argument("truth_table: bits set beyond 2^num_vars rows");
    }
    words_[0] = bits;
}

truth_table::truth_table(int num_vars, const tt_words& words)
    : num_vars_(num_vars), words_(words) {
    check_arity(num_vars);
    if ((words_[0] & ~word0_mask()) != 0) {
        throw std::invalid_argument("truth_table: bits set beyond 2^num_vars rows");
    }
    for (int w = num_words(); w < k_num_words; ++w) {
        if (words_[w] != 0) {
            throw std::invalid_argument(
                "truth_table: bits set beyond 2^num_vars rows");
        }
    }
}

std::uint64_t truth_table::word0_mask() const {
    if (num_vars_ >= k_word_vars) return ~std::uint64_t{0};
    return (std::uint64_t{1} << num_minterms()) - 1;
}

truth_table truth_table::constant(int num_vars, bool value) {
    truth_table t(num_vars);
    if (value) {
        const int nw = t.num_words();
        t.words_[0] = t.word0_mask();
        for (int w = 1; w < nw; ++w) t.words_[w] = ~std::uint64_t{0};
    }
    return t;
}

truth_table truth_table::variable(int num_vars, int var) {
    check_arity(num_vars);
    if (var < 0 || var >= num_vars) {
        throw std::invalid_argument("truth_table::variable: index out of range");
    }
    truth_table t(num_vars);
    const int nw = t.num_words();
    if (var < k_word_vars) {
        const std::uint64_t m = k_var_mask[var] & t.word0_mask();
        for (int w = 0; w < nw; ++w) t.words_[w] = m;
    } else {
        const int wb = var - k_word_vars;
        for (int w = 0; w < nw; ++w) {
            t.words_[w] = ((w >> wb) & 1) != 0 ? ~std::uint64_t{0} : 0;
        }
    }
    return t;
}

truth_table truth_table::from_function(int num_vars,
                                       const std::function<bool(std::uint32_t)>& fn) {
    truth_table t(num_vars);
    for (std::uint32_t m = 0; m < t.num_minterms(); ++m) {
        if (fn(m)) t.words_[m >> k_word_vars] |= std::uint64_t{1} << (m & 63);
    }
    return t;
}

truth_table truth_table::from_string(const std::string& rows) {
    int num_vars = -1;
    for (int n = 0; n <= k_max_vars; ++n) {
        if (rows.size() == (std::size_t{1} << n)) {
            num_vars = n;
            break;
        }
    }
    if (num_vars < 0) {
        throw std::invalid_argument("truth_table::from_string: length is not 2^n (n<=8)");
    }
    truth_table t(num_vars);
    for (std::size_t m = 0; m < rows.size(); ++m) {
        if (rows[m] == '1') {
            t.words_[m >> k_word_vars] |= std::uint64_t{1} << (m & 63);
        } else if (rows[m] != '0') {
            throw std::invalid_argument("truth_table::from_string: invalid character");
        }
    }
    return t;
}

bool truth_table::eval(std::uint32_t minterm) const {
    if (minterm >= num_minterms()) {
        throw std::out_of_range("truth_table::eval: minterm out of range");
    }
    return (words_[minterm >> k_word_vars] >> (minterm & 63)) & 1u;
}

std::uint64_t truth_table::eval_word_lanes(const std::uint64_t* fn_words,
                                           int num_vars,
                                           const std::uint64_t* inputs) {
    if (num_vars == 0) return std::uint64_t{0} - (fn_words[0] & 1u);
    // Bottom-up mux-tree (Shannon) reduction.  Level 1 folds variable 0
    // straight out of the truth-table bits — each adjacent minterm pair
    // (2j, 2j+1) becomes one lane word — and every further level muxes
    // neighbours on the next variable's lane word.  Total work is ~2^n word
    // operations for all 64 lanes, branch-free.
    std::uint64_t vals[std::size_t{1} << (k_max_vars - 1)];
    const std::uint64_t x0 = inputs[0];
    std::uint32_t n = 1u << (num_vars - 1);
    for (std::uint32_t j = 0; j < n; ++j) {
        const std::uint64_t pair = fn_words[j >> 5] >> ((2 * j) & 63);
        const std::uint64_t m0 = std::uint64_t{0} - (pair & 1u);
        const std::uint64_t m1 = std::uint64_t{0} - ((pair >> 1) & 1u);
        vals[j] = (m0 & ~x0) | (m1 & x0);
    }
    for (int v = 1; v < num_vars; ++v) {
        const std::uint64_t xv = inputs[v];
        n >>= 1;
        for (std::uint32_t j = 0; j < n; ++j) {
            vals[j] = (vals[2 * j] & ~xv) | (vals[2 * j + 1] & xv);
        }
    }
    return vals[0];
}

void truth_table::set(std::uint32_t minterm, bool value) {
    if (minterm >= num_minterms()) {
        throw std::out_of_range("truth_table::set: minterm out of range");
    }
    const std::uint64_t bit = std::uint64_t{1} << (minterm & 63);
    if (value) {
        words_[minterm >> k_word_vars] |= bit;
    } else {
        words_[minterm >> k_word_vars] &= ~bit;
    }
}

int truth_table::count_ones() const {
    int ones = std::popcount(words_[0]);
    for (int w = 1; w < num_words(); ++w) ones += std::popcount(words_[w]);
    return ones;
}

bool truth_table::is_constant_zero() const {
    for (int w = 0; w < num_words(); ++w) {
        if (words_[w] != 0) return false;
    }
    return true;
}

bool truth_table::is_constant_one() const {
    if (words_[0] != word0_mask()) return false;
    for (int w = 1; w < num_words(); ++w) {
        if (words_[w] != ~std::uint64_t{0}) return false;
    }
    return true;
}

bool truth_table::depends_on(int var) const {
    if (var < 0 || var >= num_vars_) return false;
    if (var < k_word_vars) {
        // Align each x_var=1 row onto its x_var=0 partner; any XOR
        // difference in the low half means the two cofactors disagree.
        const int s = 1 << var;
        const std::uint64_t half = ~k_var_mask[var];
        if (num_vars_ <= k_word_vars) {
            return ((words_[0] ^ (words_[0] >> s)) & half & word0_mask()) != 0;
        }
        const int nw = num_words();
        for (int w = 0; w < nw; ++w) {
            if (((words_[w] ^ (words_[w] >> s)) & half) != 0) return true;
        }
        return false;
    }
    const int ws = 1 << (var - k_word_vars);
    const int nw = num_words();
    for (int w = 0; w < nw; ++w) {
        if ((w & ws) == 0 && words_[w] != words_[w | ws]) return true;
    }
    return false;
}

std::uint32_t truth_table::support_mask() const {
    std::uint32_t mask = 0;
    for (int v = 0; v < num_vars_; ++v) {
        if (depends_on(v)) mask |= 1u << v;
    }
    return mask;
}

int truth_table::support_size() const { return std::popcount(support_mask()); }

truth_table truth_table::cofactor(int var, bool value) const {
    if (var < 0 || var >= num_vars_) {
        throw std::invalid_argument("truth_table::cofactor: index out of range");
    }
    truth_table t(num_vars_);
    if (var < k_word_vars) {
        const std::uint64_t m = k_var_mask[var];
        const int s = 1 << var;
        if (num_vars_ <= k_word_vars) {
            std::uint64_t x;
            if (value) {
                x = words_[0] & m;
                x |= x >> s;
            } else {
                x = words_[0] & ~m;
                x |= x << s;
            }
            t.words_[0] = x & word0_mask();
            return t;
        }
        const int nw = num_words();
        for (int w = 0; w < nw; ++w) {
            std::uint64_t x;
            if (value) {
                x = words_[w] & m;
                x |= x >> s;
            } else {
                x = words_[w] & ~m;
                x |= x << s;
            }
            t.words_[w] = x;
        }
        return t;
    }
    const int ws = 1 << (var - k_word_vars);
    const int nw = num_words();
    for (int w = 0; w < nw; ++w) {
        t.words_[w] = words_[value ? (w | ws) : (w & ~ws)];
    }
    return t;
}

truth_table truth_table::expand(int new_num_vars) const {
    check_arity(new_num_vars);
    if (new_num_vars < num_vars_) {
        throw std::invalid_argument("truth_table::expand: cannot shrink arity");
    }
    tt_words x = words_;
    for (int v = num_vars_; v < new_num_vars; ++v) {
        if (v < k_word_vars) {
            x[0] |= x[0] << (1 << v);
        } else {
            const int ws = 1 << (v - k_word_vars);
            for (int w = 0; w < ws; ++w) x[w + ws] = x[w];
        }
    }
    truth_table t(new_num_vars);
    const int nw = t.num_words();
    for (int w = 0; w < nw; ++w) t.words_[w] = x[w];
    t.words_[0] &= t.word0_mask();
    return t;
}

truth_table truth_table::permute(const std::vector<int>& perm) const {
    if (perm.size() != static_cast<std::size_t>(num_vars_)) {
        throw std::invalid_argument("truth_table::permute: permutation size mismatch");
    }
    // Bubble the variables into place with adjacent swaps: position p
    // currently holds original variable cur[p], which must end up at
    // position perm[cur[p]].  O(n^2) word swaps, n <= 8.
    int cur[k_max_vars];
    for (int v = 0; v < num_vars_; ++v) cur[v] = v;
    truth_table t(num_vars_);
    if (num_vars_ <= k_word_vars) {
        std::uint64_t x = words_[0];
        for (int pass = 0; pass < num_vars_; ++pass) {
            for (int p = 0; p + 1 < num_vars_; ++p) {
                if (perm[static_cast<std::size_t>(cur[p])] >
                    perm[static_cast<std::size_t>(cur[p + 1])]) {
                    std::swap(cur[p], cur[p + 1]);
                    x = swap_adjacent_word(x, p);
                }
            }
        }
        t.words_[0] = x & word0_mask();
        return t;
    }
    tt_words x = words_;
    const int nw = num_words();
    for (int pass = 0; pass < num_vars_; ++pass) {
        for (int p = 0; p + 1 < num_vars_; ++p) {
            if (perm[static_cast<std::size_t>(cur[p])] >
                perm[static_cast<std::size_t>(cur[p + 1])]) {
                std::swap(cur[p], cur[p + 1]);
                swap_adjacent(x, p, nw);
            }
        }
    }
    t.words_ = x;
    return t;
}

truth_table truth_table::negate_inputs(std::uint32_t mask) const {
    if ((mask >> num_vars_) != 0) {
        throw std::invalid_argument("truth_table::negate_inputs: mask outside arity");
    }
    // g[i] = f[i ^ mask]: for each negated in-word variable, exchange the
    // x_v=0 and x_v=1 halves of every word; for each negated word-index
    // variable, exchange the word pairs it separates.
    if (num_vars_ <= k_word_vars) {
        std::uint64_t x = words_[0];
        for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
            const int v = std::countr_zero(rest);
            const std::uint64_t m = k_var_mask[v];
            const int s = 1 << v;
            x = ((x & m) >> s) | ((x << s) & m);
        }
        truth_table t(num_vars_);
        t.words_[0] = x & word0_mask();
        return t;
    }
    tt_words x = words_;
    const int nw = num_words();
    for (std::uint32_t rest = mask; rest != 0; rest &= rest - 1) {
        const int v = std::countr_zero(rest);
        if (v < k_word_vars) {
            const std::uint64_t m = k_var_mask[v];
            const int s = 1 << v;
            for (int w = 0; w < nw; ++w) {
                x[w] = ((x[w] & m) >> s) | ((x[w] << s) & m);
            }
        } else {
            const int ws = 1 << (v - k_word_vars);
            for (int w = 0; w < nw; ++w) {
                if ((w & ws) == 0) std::swap(x[w], x[w | ws]);
            }
        }
    }
    truth_table t(num_vars_);
    t.words_ = x;
    t.words_[0] &= t.word0_mask();
    return t;
}

truth_table truth_table::operator~() const {
    truth_table t(num_vars_);
    const int nw = num_words();
    for (int w = 0; w < nw; ++w) t.words_[w] = ~words_[w];
    t.words_[0] &= word0_mask();
    return t;
}

namespace {
void check_same_arity(const truth_table& a, const truth_table& b) {
    if (a.num_vars() != b.num_vars()) {
        throw std::invalid_argument("truth_table: arity mismatch in binary operation");
    }
}
}  // namespace

truth_table truth_table::operator&(const truth_table& other) const {
    check_same_arity(*this, other);
    truth_table t(num_vars_);
    for (int w = 0; w < k_num_words; ++w) t.words_[w] = words_[w] & other.words_[w];
    return t;
}

truth_table truth_table::operator|(const truth_table& other) const {
    check_same_arity(*this, other);
    truth_table t(num_vars_);
    for (int w = 0; w < k_num_words; ++w) t.words_[w] = words_[w] | other.words_[w];
    return t;
}

truth_table truth_table::operator^(const truth_table& other) const {
    check_same_arity(*this, other);
    truth_table t(num_vars_);
    for (int w = 0; w < k_num_words; ++w) t.words_[w] = words_[w] ^ other.words_[w];
    return t;
}

std::string truth_table::to_string() const {
    std::string s(num_minterms(), '0');
    for (std::uint32_t m = 0; m < num_minterms(); ++m) {
        if (eval(m)) s[m] = '1';
    }
    return s;
}

}  // namespace plee::bf
