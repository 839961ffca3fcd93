// Exhaustive LUT4 regression for the multiword truth-table refactor: the
// ≤ 6-variable path must be byte-identical to the pre-refactor single-word
// engine.  Over all 2^16 LUT4 masters and all 14 candidate support sets this
// locks down the trigger functions against the per-minterm scalar oracle
// of trigger_oracle.hpp — including that their storage stays entirely in word 0.

#include <gtest/gtest.h>

#include "bool/support.hpp"
#include "bool/truth_table.hpp"
#include "ee/trigger_search.hpp"
#include "trigger_oracle.hpp"

namespace plee::ee {
namespace {

bool single_word(const bf::tt_words& words) {
    return words[1] == 0 && words[2] == 0 && words[3] == 0;
}

TEST(MultiwordLut4, TriggersMatchScalarOracleAndStaySingleWord) {
    for (std::uint32_t f = 0; f <= 0xffffu; ++f) {
        const bf::truth_table master(4, f);
        ASSERT_TRUE(single_word(master.words()));
        for (std::uint32_t s : bf::support_subsets(4, 3)) {
            const bf::truth_table word = exact_trigger_function(master, s);
            const bf::truth_table ref = scalar::exact_trigger_function(master, s);
            ASSERT_EQ(word, ref) << "master=" << f << " support=" << s;
            // Byte-identity of the representation, not just value equality:
            // the trigger lives in word 0 exactly as it did pre-refactor.
            ASSERT_TRUE(single_word(word.words()));
            ASSERT_EQ(word.bits(), ref.bits());
        }
    }
}

}  // namespace
}  // namespace plee::ee
