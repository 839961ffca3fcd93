// bit_matrix.hpp — flat V×V bit matrix used by the reachability analyses.
//
// Both the marked-graph safety checker and the PL mapper's feedback-sharing
// optimization need dense reachability over token-free subgraphs; one
// dynamic program (token_reach in marked_graph.hpp) computes it for both.  A
// packed row-major bit matrix keeps that O(V·E) program fast at
// CPU-benchmark scale (thousands of gates).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace plee::pl {

class bit_matrix {
public:
    bit_matrix(std::size_t rows, std::size_t cols)
        : words_per_row_((cols + 63) / 64), bits_(rows * words_per_row_, 0) {}

    void set(std::size_t r, std::size_t c) {
        bits_[r * words_per_row_ + c / 64] |= std::uint64_t{1} << (c % 64);
    }
    bool test(std::size_t r, std::size_t c) const {
        return (bits_[r * words_per_row_ + c / 64] >> (c % 64)) & 1u;
    }
    /// row[dst] |= row[src]
    void or_row(std::size_t dst, std::size_t src) {
        std::uint64_t* d = &bits_[dst * words_per_row_];
        const std::uint64_t* s = &bits_[src * words_per_row_];
        for (std::size_t w = 0; w < words_per_row_; ++w) d[w] |= s[w];
    }
    /// row[dst] |= other.row[src]
    void or_row_from(std::size_t dst, const bit_matrix& other, std::size_t src) {
        std::uint64_t* d = &bits_[dst * words_per_row_];
        const std::uint64_t* s = &other.bits_[src * words_per_row_];
        for (std::size_t w = 0; w < words_per_row_; ++w) d[w] |= s[w];
    }

private:
    std::size_t words_per_row_;
    std::vector<std::uint64_t> bits_;
};

}  // namespace plee::pl
