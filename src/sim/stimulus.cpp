#include "sim/stimulus.hpp"

#include <algorithm>
#include <stdexcept>

namespace plee::sim {

void stimulus_block::extract(std::size_t vec, std::vector<bool>& out) const {
    out.resize(width);
    for (std::size_t i = 0; i < width; ++i) out[i] = bit(vec, i);
}

stimulus_block stimulus_stream::next(std::size_t num_vectors) {
    if (num_vectors == 0 || num_vectors > k_lanes) {
        throw std::invalid_argument("stimulus_stream::next: 1..64 vectors per block");
    }
    stimulus_block block;
    block.width = width_;
    block.num_vectors = num_vectors;
    block.words.assign(width_, 0);
    // Vector-major draw order — the exact stream random_vectors always used,
    // so per-seed lane contents stay byte-identical to the unpacked form.
    for (std::size_t v = 0; v < num_vectors; ++v) {
        for (std::size_t i = 0; i < width_; ++i) {
            block.words[i] |= std::uint64_t{draw_bit(rng_())} << v;
        }
    }
    return block;
}

std::vector<stimulus_block> make_stimulus(std::size_t count, std::size_t width,
                                          std::uint64_t seed) {
    stimulus_stream stream(width, seed);
    std::vector<stimulus_block> blocks;
    blocks.reserve((count + k_lanes - 1) / k_lanes);
    for (std::size_t drawn = 0; drawn < count; drawn += k_lanes) {
        blocks.push_back(stream.next(std::min(k_lanes, count - drawn)));
    }
    return blocks;
}

}  // namespace plee::sim
