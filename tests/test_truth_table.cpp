// Unit tests for bf::truth_table — the dense Boolean function substrate of
// the trigger search.

#include "bool/truth_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace plee::bf {
namespace {

TEST(TruthTable, ConstantsHaveExpectedBits) {
    EXPECT_EQ(truth_table::constant(3, false).bits(), 0u);
    EXPECT_EQ(truth_table::constant(3, true).bits(), 0xffu);
    EXPECT_TRUE(truth_table::constant(2, true).is_constant_one());
    EXPECT_TRUE(truth_table::constant(2, false).is_constant_zero());
    EXPECT_TRUE(truth_table::constant(0, true).is_constant_one());
}

TEST(TruthTable, VariableProjection) {
    const truth_table x0 = truth_table::variable(2, 0);
    const truth_table x1 = truth_table::variable(2, 1);
    EXPECT_EQ(x0.to_string(), "0101");
    EXPECT_EQ(x1.to_string(), "0011");
}

TEST(TruthTable, RejectsBadArity) {
    EXPECT_THROW(truth_table(9), std::invalid_argument);
    EXPECT_THROW(truth_table(-1), std::invalid_argument);
    EXPECT_THROW(truth_table(2, 0x10), std::invalid_argument);  // bit 4 of a 2-var table
    // Word-array construction enforces the same row bound: a 7-var table
    // spans 2 words, so words 2..3 must be zero.
    EXPECT_THROW(truth_table(7, tt_words{0, 0, 1, 0}), std::invalid_argument);
    EXPECT_NO_THROW(truth_table(7, tt_words{~0ull, 42, 0, 0}));
}

TEST(TruthTable, FullAdderCarryMatchesPaperTable1) {
    // Table 1 master: carry-out c(a+b) + ab with a=var0, b=var1, c=var2.
    const truth_table a = truth_table::variable(3, 0);
    const truth_table b = truth_table::variable(3, 1);
    const truth_table c = truth_table::variable(3, 2);
    const truth_table carry = (c & (a | b)) | (a & b);
    // Paper rows (abc ascending as 000,001,...): 0,0,0,1,0,1,1,1 — note the
    // paper lists minterms with a as the MSB column; our index packs a in
    // bit 0, so compare against the function directly.
    for (std::uint32_t m = 0; m < 8; ++m) {
        const bool av = m & 1, bv = m & 2, cv = m & 4;
        EXPECT_EQ(carry.eval(m), (cv && (av || bv)) || (av && bv));
    }
    EXPECT_EQ(carry.count_ones(), 4);
}

TEST(TruthTable, EvalAndSetRoundTrip) {
    truth_table t(4);
    t.set(5, true);
    t.set(11, true);
    EXPECT_TRUE(t.eval(5));
    EXPECT_TRUE(t.eval(11));
    EXPECT_FALSE(t.eval(6));
    t.set(5, false);
    EXPECT_FALSE(t.eval(5));
    EXPECT_THROW(t.eval(16), std::out_of_range);
    EXPECT_THROW(t.set(16, true), std::out_of_range);
}

TEST(TruthTable, CofactorShannonExpansion) {
    const truth_table f = truth_table::from_string("0110100110010110");  // 4-var
    for (int v = 0; v < 4; ++v) {
        const truth_table f0 = f.cofactor(v, false);
        const truth_table f1 = f.cofactor(v, true);
        EXPECT_FALSE(f0.depends_on(v));
        EXPECT_FALSE(f1.depends_on(v));
        const truth_table x = truth_table::variable(4, v);
        EXPECT_EQ((~x & f0) | (x & f1), f);  // Shannon expansion
    }
}

TEST(TruthTable, SupportDetection) {
    // f = x0 XOR x2 over 4 vars: support {0, 2}.
    const truth_table f =
        truth_table::variable(4, 0) ^ truth_table::variable(4, 2);
    EXPECT_TRUE(f.depends_on(0));
    EXPECT_FALSE(f.depends_on(1));
    EXPECT_TRUE(f.depends_on(2));
    EXPECT_FALSE(f.depends_on(3));
    EXPECT_EQ(f.support_mask(), 0b0101u);
    EXPECT_EQ(f.support_size(), 2);
}

TEST(TruthTable, ExpandKeepsFunction) {
    const truth_table f = truth_table::variable(2, 1);  // x1 over 2 vars
    const truth_table g = f.expand(4);
    EXPECT_EQ(g.num_vars(), 4);
    for (std::uint32_t m = 0; m < 16; ++m) {
        EXPECT_EQ(g.eval(m), (m & 2u) != 0);
    }
    EXPECT_EQ(g.support_mask(), 0b0010u);
    EXPECT_THROW(g.expand(2), std::invalid_argument);
}

TEST(TruthTable, PermuteRelabelsVariables) {
    // f(x0,x1) = x0 & ~x1; permute 0->1, 1->0 gives x1 & ~x0.
    const truth_table f = truth_table::variable(2, 0) & ~truth_table::variable(2, 1);
    const truth_table g = f.permute({1, 0});
    EXPECT_EQ(g, truth_table::variable(2, 1) & ~truth_table::variable(2, 0));
}

TEST(TruthTable, OperatorsAreBitwise) {
    const truth_table a = truth_table::from_string("0011");
    const truth_table b = truth_table::from_string("0101");
    EXPECT_EQ((a & b).to_string(), "0001");
    EXPECT_EQ((a | b).to_string(), "0111");
    EXPECT_EQ((a ^ b).to_string(), "0110");
    EXPECT_EQ((~a).to_string(), "1100");
}

TEST(TruthTable, BinaryOperatorsRejectArityMismatch) {
    EXPECT_THROW(truth_table(2) & truth_table(3), std::invalid_argument);
    EXPECT_THROW(truth_table(2) | truth_table(3), std::invalid_argument);
    EXPECT_THROW(truth_table(2) ^ truth_table(3), std::invalid_argument);
}

TEST(TruthTable, FromStringRoundTrip) {
    const std::string rows = "01101001";
    EXPECT_EQ(truth_table::from_string(rows).to_string(), rows);
    EXPECT_THROW(truth_table::from_string("011"), std::invalid_argument);
    EXPECT_THROW(truth_table::from_string("01x1"), std::invalid_argument);
}

TEST(TruthTable, SixVariableLimit) {
    const truth_table t = truth_table::variable(6, 5);
    EXPECT_EQ(t.num_minterms(), 64u);
    EXPECT_EQ(t.count_ones(), 32);
    EXPECT_TRUE(truth_table::constant(6, true).is_constant_one());
}

// Property sweep: cofactor and support agree for a spread of 4-var functions.
class TruthTableProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TruthTableProperty, SupportMatchesCofactorEquality) {
    const truth_table f(4, GetParam() & 0xffff);
    for (int v = 0; v < 4; ++v) {
        EXPECT_EQ(f.depends_on(v), f.cofactor(v, false) != f.cofactor(v, true));
    }
}

TEST_P(TruthTableProperty, DeMorgan) {
    const truth_table f(4, GetParam() & 0xffff);
    const truth_table g(4, (GetParam() * 0x9e3779b9u) & 0xffff);
    EXPECT_EQ(~(f & g), ~f | ~g);
    EXPECT_EQ(~(f | g), ~f & ~g);
}

INSTANTIATE_TEST_SUITE_P(Spread, TruthTableProperty,
                         ::testing::Values(0x0000u, 0xffffu, 0x8000u, 0x0001u,
                                           0x6996u, 0x1ee1u, 0xcafeu, 0x1234u,
                                           0xf0f0u, 0xaaaa, 0x5a5au, 0x7777u));

// ---------------------------------------------------------------------------
// Word-parallel kernels: every branch-free shift/AND implementation is
// cross-checked against a per-minterm model built with from_function, over
// random tables of every arity up to 6.
// ---------------------------------------------------------------------------

std::uint64_t next_state(std::uint64_t& s) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s;
}

truth_table random_table(int n, std::uint64_t& s) {
    tt_words words{};
    for (int w = 0; w < words_for(n); ++w) words[w] = next_state(s);
    if (n < k_word_vars) words[0] &= (std::uint64_t{1} << (1u << n)) - 1;
    return truth_table(n, words);
}

TEST(TruthTableKernels, VarMasksAreTheProjectionTables) {
    for (int n = 1; n <= k_max_vars; ++n) {
        for (int v = 0; v < n; ++v) {
            const truth_table expected = truth_table::from_function(
                n, [v](std::uint32_t m) { return ((m >> v) & 1u) != 0; });
            EXPECT_EQ(truth_table::variable(n, v), expected);
        }
    }
}

TEST(TruthTableKernels, CofactorMatchesPerMintermModel) {
    std::uint64_t s = 1;
    for (int trial = 0; trial < 200; ++trial) {
        for (int n = 1; n <= k_max_vars; ++n) {
            const truth_table f = random_table(n, s);
            for (int v = 0; v < n; ++v) {
                for (bool value : {false, true}) {
                    const truth_table expected = truth_table::from_function(
                        n, [&](std::uint32_t m) {
                            const std::uint32_t src =
                                value ? (m | (1u << v)) : (m & ~(1u << v));
                            return f.eval(src);
                        });
                    ASSERT_EQ(f.cofactor(v, value), expected)
                        << "n=" << n << " v=" << v << " value=" << value;
                }
            }
        }
    }
}

TEST(TruthTableKernels, DependsOnAndSupportMatchCofactors) {
    std::uint64_t s = 2;
    for (int trial = 0; trial < 500; ++trial) {
        for (int n = 1; n <= k_max_vars; ++n) {
            const truth_table f = random_table(n, s);
            std::uint32_t expected_mask = 0;
            for (int v = 0; v < n; ++v) {
                const bool dep = f.cofactor(v, false) != f.cofactor(v, true);
                ASSERT_EQ(f.depends_on(v), dep);
                if (dep) expected_mask |= 1u << v;
            }
            ASSERT_EQ(f.support_mask(), expected_mask);
        }
    }
}

TEST(TruthTableKernels, PermuteMatchesPerMintermModel) {
    std::uint64_t s = 6;
    for (int trial = 0; trial < 100; ++trial) {
        for (int n = 1; n <= k_max_vars; ++n) {
            const truth_table f = random_table(n, s);
            std::vector<int> perm(static_cast<std::size_t>(n));
            for (int v = 0; v < n; ++v) perm[static_cast<std::size_t>(v)] = v;
            // Fisher-Yates with the test PRNG.
            for (int v = n - 1; v > 0; --v) {
                std::swap(perm[static_cast<std::size_t>(v)],
                          perm[next_state(s) % static_cast<std::uint64_t>(v + 1)]);
            }
            const truth_table expected = truth_table::from_function(
                n, [&](std::uint32_t dst) {
                    // dst bit perm[v] carries source bit v.
                    std::uint32_t src = 0;
                    for (int v = 0; v < n; ++v) {
                        if ((dst >> perm[static_cast<std::size_t>(v)]) & 1u) {
                            src |= 1u << v;
                        }
                    }
                    return f.eval(src);
                });
            ASSERT_EQ(f.permute(perm), expected) << "n=" << n;
        }
    }
}

TEST(TruthTableKernels, NegateInputsMatchesPerMintermModelAndIsAnInvolution) {
    std::uint64_t s = 8;
    for (int trial = 0; trial < 100; ++trial) {
        for (int n = 1; n <= k_word_vars; ++n) {
            const truth_table f = random_table(n, s);
            const std::uint32_t mask =
                static_cast<std::uint32_t>(next_state(s)) & ((1u << n) - 1);
            const truth_table g = f.negate_inputs(mask);
            for (std::uint32_t m = 0; m < f.num_minterms(); ++m) {
                ASSERT_EQ(g.eval(m), f.eval(m ^ mask)) << "n=" << n << " m=" << m;
            }
            ASSERT_EQ(g.negate_inputs(mask), f) << "n=" << n;
        }
    }
    EXPECT_THROW(truth_table(2, 0x6).negate_inputs(0x4), std::invalid_argument);
}

TEST(TruthTableKernels, ExpandIsVacuous) {
    std::uint64_t s = 7;
    for (int trial = 0; trial < 100; ++trial) {
        for (int n = 0; n <= k_max_vars; ++n) {
            const truth_table f = random_table(std::max(n, 1), s);
            for (int m = f.num_vars(); m <= k_max_vars; ++m) {
                const truth_table wide = f.expand(m);
                ASSERT_EQ(wide.num_vars(), m);
                const std::uint32_t low = f.num_minterms() - 1;
                for (std::uint32_t i = 0; i < wide.num_minterms(); ++i) {
                    ASSERT_EQ(wide.eval(i), f.eval(i & low));
                }
            }
        }
    }
}

}  // namespace
}  // namespace plee::bf
