// Tests for the support-set enumeration behind "all 14 possible support
// sets of 3 or fewer variables" (Section 3).

#include "bool/support.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <stdexcept>

namespace plee::bf {
namespace {

TEST(Support, FourInputMasterHasFourteenCandidates) {
    // C(4,1) + C(4,2) + C(4,3) = 4 + 6 + 4 = 14 — the count quoted in the
    // paper for the LUT4 master search.
    const auto subsets = enumerate_support_subsets(0b1111, 3);
    EXPECT_EQ(subsets.size(), 14u);
    std::set<std::uint32_t> unique(subsets.begin(), subsets.end());
    EXPECT_EQ(unique.size(), 14u);
    for (std::uint32_t s : subsets) {
        EXPECT_NE(s, 0u);
        EXPECT_NE(s, 0b1111u);            // proper subsets only
        EXPECT_LE(std::popcount(s), 3);
        EXPECT_EQ(s & ~0b1111u, 0u);       // confined to the full support
    }
}

TEST(Support, ThreeInputMasterHasSixCandidates) {
    // The paper's full-adder example: {a}, {b}, {c}, {a,b}, {a,c}, {b,c}.
    const auto subsets = enumerate_support_subsets(0b111, 3);
    EXPECT_EQ(subsets.size(), 6u);
}

TEST(Support, TwoInputMaster) {
    const auto subsets = enumerate_support_subsets(0b11, 3);
    EXPECT_EQ(subsets.size(), 2u);  // {x0}, {x1}
}

TEST(Support, MaxSizeLimitsEnumeration) {
    const auto subsets = enumerate_support_subsets(0b1111, 1);
    EXPECT_EQ(subsets.size(), 4u);
    for (std::uint32_t s : subsets) EXPECT_EQ(std::popcount(s), 1);
}

TEST(Support, OrderedBySizeThenValue) {
    const auto subsets = enumerate_support_subsets(0b1111, 3);
    for (std::size_t i = 1; i < subsets.size(); ++i) {
        const int prev = std::popcount(subsets[i - 1]);
        const int cur = std::popcount(subsets[i]);
        EXPECT_TRUE(prev < cur || (prev == cur && subsets[i - 1] < subsets[i]));
    }
}

TEST(Support, NonContiguousSupportMask) {
    // A master whose live pins are 0 and 2 (pin 1 vacuous/absent).
    const auto subsets = enumerate_support_subsets(0b101, 3);
    EXPECT_EQ(subsets.size(), 2u);
    EXPECT_EQ(subsets[0], 0b001u);
    EXPECT_EQ(subsets[1], 0b100u);
}

TEST(Support, ServedListsMatchTheEnumeration) {
    // All 81 (arity, size limit) lists, in order, plus the clamped limits.
    for (int n = 0; n <= 8; ++n) {
        for (int k = 0; k <= 8; ++k) {
            EXPECT_EQ(support_subsets(n, k),
                      enumerate_support_subsets((1u << n) - 1, k))
                << "n=" << n << " k=" << k;
        }
        EXPECT_EQ(&support_subsets(n, 12), &support_subsets(n, 8));
        EXPECT_EQ(&support_subsets(n, -1), &support_subsets(n, 0));
    }
    EXPECT_EQ(support_subsets(4, 3).size(), 14u);
    EXPECT_THROW(support_subsets(9, 3), std::invalid_argument);
    EXPECT_THROW(support_subsets(-1, 3), std::invalid_argument);
}

TEST(Support, MembersAscending) {
    const auto members = support_members(0b1011);
    ASSERT_EQ(members.size(), 3u);
    EXPECT_EQ(members[0], 0);
    EXPECT_EQ(members[1], 1);
    EXPECT_EQ(members[2], 3);
    EXPECT_TRUE(support_members(0).empty());
}

}  // namespace
}  // namespace plee::bf
