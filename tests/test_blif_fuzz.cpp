// Deterministic mutation-fuzz of the BLIF importer.  The importer's contract
// (blif.hpp) is that arbitrary bytes either parse into a netlist that
// validates or raise blif_error — never an untyped exception, never a
// crash.  We exercise that contract with seeded byte flips and truncations
// over real decks (ITC99 benchmarks serialized by to_blif), plus a row of
// targeted hand-written malformations.  Everything is seeded splitmix64, so
// a failure reproduces from the test log alone.

#include "netlist/blif.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_circuits/itc99.hpp"

namespace plee::nl {
namespace {

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/// Parses `text` and asserts the untrusted-input contract: success (with a
/// validating netlist) or blif_error.  Anything else fails the test with the
/// mutation context so the case reproduces.
void expect_parse_or_typed_error(const std::string& text,
                                 const std::string& context) {
    try {
        const netlist n = from_blif_string(text);
        n.validate();  // throws if the parser accepted an invalid structure
    } catch (const blif_error&) {
        // The contract: malformed input surfaces as the typed error.
    } catch (const std::exception& e) {
        FAIL() << context << ": escaped non-blif_error exception: " << e.what();
    }
}

std::vector<std::string> fuzz_decks() {
    std::vector<std::string> decks;
    for (const char* name : {"b01", "b02", "b06"}) {
        decks.push_back(to_blif(bench::build_benchmark(name), name));
    }
    return decks;
}

TEST(BlifFuzz, SeededByteMutationsNeverEscapeTypedErrors) {
    for (const std::string& deck : fuzz_decks()) {
        for (std::uint64_t trial = 0; trial < 256; ++trial) {
            std::string mutated = deck;
            // 1-4 byte mutations per trial, drawn from printable-ish bytes so
            // most trials survive tokenization deep into the parser.
            const std::uint64_t h0 = splitmix64(trial * 0x51ull + deck.size());
            const int edits = 1 + static_cast<int>(h0 % 4);
            for (int e = 0; e < edits; ++e) {
                const std::uint64_t h = splitmix64(h0 ^ (0xabcdull * (e + 1)));
                const std::size_t pos = h % mutated.size();
                static const char alphabet[] = "01-. \n\\xyz#";
                mutated[pos] = alphabet[(h >> 32) % (sizeof(alphabet) - 1)];
            }
            expect_parse_or_typed_error(
                mutated, "byte-mutation trial " + std::to_string(trial));
        }
    }
}

TEST(BlifFuzz, TruncationAtEveryLineBoundaryIsTypedOrClean) {
    for (const std::string& deck : fuzz_decks()) {
        for (std::size_t pos = 0; pos < deck.size(); ++pos) {
            if (deck[pos] != '\n') continue;
            expect_parse_or_typed_error(
                deck.substr(0, pos + 1),
                "line truncation at byte " + std::to_string(pos));
            // Also cut mid-line, one byte before the newline.
            if (pos > 0) {
                expect_parse_or_typed_error(
                    deck.substr(0, pos),
                    "mid-line truncation at byte " + std::to_string(pos));
            }
        }
    }
}

TEST(BlifFuzz, SeededByteTruncationsNeverEscapeTypedErrors) {
    for (const std::string& deck : fuzz_decks()) {
        for (std::uint64_t trial = 0; trial < 128; ++trial) {
            const std::size_t cut =
                splitmix64(0xfeedull ^ trial ^ deck.size()) % deck.size();
            expect_parse_or_typed_error(
                deck.substr(0, cut),
                "byte truncation trial " + std::to_string(trial));
        }
    }
}

TEST(BlifFuzz, MissingEndIsTruncationError) {
    std::string deck = fuzz_decks().front();
    const std::size_t end_pos = deck.rfind(".end");
    ASSERT_NE(end_pos, std::string::npos);
    deck.erase(end_pos);
    try {
        from_blif_string(deck);
        FAIL() << "deck without .end parsed";
    } catch (const blif_error& e) {
        EXPECT_NE(std::string(e.what()).find("missing .end"), std::string::npos);
    }
}

TEST(BlifFuzz, TrailingContinuationIsTypedError) {
    EXPECT_THROW(from_blif_string(".model m\n.inputs a\n.outputs y\n"
                                  ".names a \\"),
                 blif_error);
    // The final .end line itself carries a continuation marker: the deck
    // ends mid-continuation and the ".end" never takes effect.
    EXPECT_THROW(from_blif_string(".model m\n.inputs a\n.outputs y\n"
                                  ".names a y\n1 1\n.end \\"),
                 blif_error);
}

TEST(BlifFuzz, TargetedMalformationsRaiseBlifError) {
    const struct {
        const char* text;
        const char* why;
    } cases[] = {
        {".model m\n.inputs a\n.outputs y\n.names a y\n2 1\n.end\n",
         "cover char outside 0/1/-"},
        {".model m\n.inputs a\n.outputs y\n.names a y\nx 1\n.end\n",
         "alphabetic cover char"},
        {".model m\n.inputs a\n.outputs y\n.names a y\n1 5\n.end\n",
         "bad output value"},
        {".model m\n.inputs a\n.outputs y\n.names a y\n1 1 1\n.end\n",
         "three-token cover row"},
        {".model m\n.inputs a\n.outputs y\n1 1\n.end\n",
         "cover row outside .names"},
        {".model m\n.model m2\n.end\n", "nested .model"},
        {".model m\n.inputs a\n.outputs y\n.names\n.end\n",
         ".names without output"},
        {".model m\n.inputs a\n.outputs y\n.latch a\n.end\n",
         ".latch without output"},
        {".model m\n.inputs a a\n.outputs y\n.names a y\n1 1\n.end\n",
         "duplicate input port"},
        {".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n"
         ".names a y\n0 1\n.end\n",
         "net driven twice"},
        {".model m\n.inputs a\n.outputs y\n.latch q y re clk 0\n.end\n",
         "latch input undriven"},
        {".model m\n.inputs a b c d e f g h i\n.outputs y\n"
         ".names a b c d e f g h i y\n111111111 1\n.end\n",
         "LUT wider than k_max_vars"},
    };
    for (const auto& c : cases) {
        try {
            from_blif_string(c.text);
            FAIL() << c.why << ": parsed without error";
        } catch (const blif_error&) {
            // The typed rejection every case expects.
        } catch (const std::exception& e) {
            FAIL() << c.why << ": wrong exception type: " << e.what();
        }
    }
}

TEST(BlifFuzz, WideLutsUpToKMaxVarsStillParse) {
    // The old diagnostic claimed a 6-input ceiling; the real one is
    // bf::k_max_vars (8).  Pin the boundary from both sides.
    const netlist n = from_blif_string(
        ".model w\n.inputs a b c d e f g h\n.outputs y\n"
        ".names a b c d e f g h y\n11111111 1\n.end\n");
    EXPECT_EQ(n.inputs().size(), 8u);
}

}  // namespace
}  // namespace plee::nl
