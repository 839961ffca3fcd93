// truth_table.hpp — dense complete Boolean functions over up to 8 variables.
//
// The Early Evaluation algorithm of Thornton et al. (DATE 2002) operates on
// LUT4 gate functions: every Phased Logic gate computes a Boolean function of
// at most four inputs.  A dense truth table is the natural exact
// representation at that scale, and the generalized-EE formulation the paper
// builds on is arity-independent — so the representation is a fixed word
// array: one 64-bit word covers every function of up to 6 variables (the
// LUT4 configuration mask lives in the low 16 bits of word 0, exactly as
// before), and 7- and 8-variable functions span 2 and 4 words.  The trigger
// search's single-word kernel (k_var_mask folds plus swap_adjacent_word
// compaction, in ee/trigger_search.cpp) serves every master: a 7- or
// 8-variable one first folds its free word-level variables away with ANDs
// of word pairs, then runs the single-word kernel on each word left.
//
// Variable convention: bit v of a minterm index holds the value of variable
// v, i.e. minterm m assigns variable v the value (m >> v) & 1.  Minterm m
// lives in bit (m & 63) of word (m >> 6): variables 0..5 select a bit inside
// a word, variables 6..7 select the word.

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace plee::bf {

/// Variables resolved inside one 64-bit word (64 = 2^6 rows).
inline constexpr int k_word_vars = 6;
/// Maximum variable count representable by truth_table (256 = 2^8 rows).
inline constexpr int k_max_vars = 8;
/// Words spanned by a full-width (k_max_vars) table.
inline constexpr int k_num_words = 1 << (k_max_vars - k_word_vars);

/// The raw storage of a truth table: minterm m is bit (m & 63) of word
/// (m >> 6).  Words beyond the active count and bits beyond 2^num_vars are
/// kept zero, so equality and hashing work on the plain array.
using tt_words = std::array<std::uint64_t, k_num_words>;

/// Words actually used by an `num_vars`-variable table (1 for <= 6 vars).
constexpr int words_for(int num_vars) {
    return num_vars <= k_word_vars ? 1 : 1 << (num_vars - k_word_vars);
}

/// Dense projection tables for the in-word variables over the full
/// 6-variable word (ABC's s_Truths6): bit m of k_var_mask[v] is (m >> v) & 1,
/// i.e. the truth table of x_v.  The same masks project variables 0..5 inside
/// every word of a multiword table; variables >= 6 are constant per word
/// (word w assigns variable 6+j the value (w >> j) & 1), which is what keeps
/// every per-variable operation below a handful of shift/AND/copy word
/// instructions instead of a 2^n loop.
inline constexpr std::uint64_t k_var_mask[k_word_vars] = {
    0xAAAAAAAAAAAAAAAAull, 0xCCCCCCCCCCCCCCCCull, 0xF0F0F0F0F0F0F0F0ull,
    0xFF00FF00FF00FF00ull, 0xFFFF0000FFFF0000ull, 0xFFFFFFFF00000000ull,
};

/// Masks for exchanging adjacent in-word variables j and j+1 in one
/// shift/mask step (the ABC PMasks): `keep` holds the rows where the two
/// variables agree, `up` the rows with (x_j, x_j+1) = (1, 0) — which move up
/// by 2^j — and `down` the rows with (0, 1), which move down by 2^j.
/// Exposed inline so the trigger-search kernel can run the swap entirely in
/// registers.
struct adjacent_swap_masks {
    std::uint64_t keep, up, down;
};

inline constexpr adjacent_swap_masks k_swap_masks[k_word_vars - 1] = {
    {0x9999999999999999ull, 0x2222222222222222ull, 0x4444444444444444ull},
    {0xC3C3C3C3C3C3C3C3ull, 0x0C0C0C0C0C0C0C0Cull, 0x3030303030303030ull},
    {0xF00FF00FF00FF00Full, 0x00F000F000F000F0ull, 0x0F000F000F000F00ull},
    {0xFF0000FFFF0000FFull, 0x0000FF000000FF00ull, 0x00FF000000FF0000ull},
    {0xFFFF00000000FFFFull, 0x00000000FFFF0000ull, 0x0000FFFF00000000ull},
};

/// Exchanges adjacent variables j and j+1 (both < 6) within one word.
constexpr std::uint64_t swap_adjacent_word(std::uint64_t bits, int j) {
    const adjacent_swap_masks& m = k_swap_masks[j];
    const int s = 1 << j;
    return (bits & m.keep) | ((bits & m.up) << s) | ((bits & m.down) >> s);
}

/// A complete Boolean function of `num_vars()` variables stored as a bitmask
/// over all 2^n minterms.  Immutable-style value type: all algebraic
/// operations return new tables.
class truth_table {
public:
    /// Constructs the constant-0 function of `num_vars` variables.
    /// `num_vars` must be in [0, k_max_vars].
    explicit truth_table(int num_vars);

    /// Constructs from an explicit minterm bitmask over word 0; bits above
    /// 2^num_vars must be zero (checked).  For > 6 variables this fills the
    /// low 64 rows and leaves the remaining words zero.
    truth_table(int num_vars, std::uint64_t bits);

    /// Constructs from the full word array; bits beyond 2^num_vars rows must
    /// be zero (checked).
    truth_table(int num_vars, const tt_words& words);

    /// The constant function of the given arity.
    static truth_table constant(int num_vars, bool value);

    /// The projection function x_var (0 <= var < num_vars).
    static truth_table variable(int num_vars, int var);

    /// Builds a table by evaluating `fn` on every minterm index.
    static truth_table from_function(int num_vars,
                                     const std::function<bool(std::uint32_t)>& fn);

    /// Parses a row string such as "0110" (minterm 0 first).  Length must be
    /// exactly 2^num_vars for some num_vars <= k_max_vars.
    static truth_table from_string(const std::string& rows);

    int num_vars() const { return num_vars_; }
    /// Word 0 of the storage — the complete function for <= 6 variables (and
    /// the LUT4 mask in its low 16 bits), the low 64 rows otherwise.
    std::uint64_t bits() const { return words_[0]; }
    /// The full storage; words beyond num_words() are zero by invariant.
    const tt_words& words() const { return words_; }
    std::uint64_t word(int w) const { return words_[static_cast<std::size_t>(w)]; }
    int num_words() const { return words_for(num_vars_); }
    std::uint32_t num_minterms() const { return 1u << num_vars_; }

    bool eval(std::uint32_t minterm) const;
    void set(std::uint32_t minterm, bool value);

    /// Evaluates all 64 lanes of a bit-parallel assignment at once:
    /// `inputs[v]` carries variable v's value for 64 independent lanes (one
    /// bit per lane), and bit L of the result is f applied to lane L.  This
    /// is the batched entry point behind the lane-parallel simulators — one
    /// mux-tree reduction (~2^n word ops) replaces 64 scalar eval calls.
    std::uint64_t eval_lanes(const std::uint64_t* inputs) const {
        return eval_word_lanes(words_.data(), num_vars_, inputs);
    }

    /// The same kernel over raw storage, for callers that keep truth-table
    /// words outside a truth_table (the simulator's gate descriptors).
    /// `fn_words` must hold words_for(num_vars) valid words in the standard
    /// layout (minterm m = bit (m & 63) of word (m >> 6)).
    static std::uint64_t eval_word_lanes(const std::uint64_t* fn_words,
                                         int num_vars,
                                         const std::uint64_t* inputs);

    /// Number of ON-set minterms.
    int count_ones() const;

    bool is_constant_zero() const;
    bool is_constant_one() const;
    bool is_constant() const { return is_constant_zero() || is_constant_one(); }

    /// True when the function value changes with variable `var` for at least
    /// one assignment of the remaining variables.
    bool depends_on(int var) const;

    /// Bitmask of variables the function actually depends on.
    std::uint32_t support_mask() const;
    /// Number of variables in the support.
    int support_size() const;

    /// Shannon cofactor with respect to `var` = `value`.  The result has the
    /// same arity but no longer depends on `var`.
    truth_table cofactor(int var, bool value) const;

    /// Re-expresses the function over a wider variable set (new variables are
    /// vacuous).  new_num_vars must be >= num_vars().
    truth_table expand(int new_num_vars) const;

    /// Permutes variables: new variable `perm[v]` takes the role of old
    /// variable `v`.  `perm` must be a permutation of [0, num_vars).
    truth_table permute(const std::vector<int>& perm) const;

    /// Negates the inputs selected by `mask`: the result g satisfies
    /// g(x) = f(x ^ mask).  One half-swap (or word exchange) per set bit —
    /// the workload generator's NPN scrambling uses it.  `mask` must lie
    /// within the variable range.
    truth_table negate_inputs(std::uint32_t mask) const;

    truth_table operator~() const;
    truth_table operator&(const truth_table& other) const;
    truth_table operator|(const truth_table& other) const;
    truth_table operator^(const truth_table& other) const;

    bool operator==(const truth_table& other) const = default;

    /// Row string, minterm 0 first: full-adder carry (3 vars) -> "00010111".
    std::string to_string() const;

private:
    std::uint64_t word0_mask() const;

    int num_vars_ = 0;
    tt_words words_{};
};

}  // namespace plee::bf
