// stimulus.hpp — bit-packed multi-vector stimulus.
//
// The measure phase drives every circuit with batches of random input
// vectors.  The lane-parallel simulators (sync_lane_simulator and
// pl_simulator::run_lanes) evaluate 64 vectors at once by packing one bit
// per vector into a 64-bit word per signal, so the stimulus is generated
// directly in that transposed layout: a stimulus_block holds up to 64
// vectors as `width` words, where bit L of word i is vector L's value of
// input i.
//
// Determinism contract: make_stimulus draws one mt19937_64 output per bit,
// in vector-major order, and keeps the stream std::bernoulli_distribution
// (0.5) gave over that engine: draw_bit is the library's own comparison
// without its u64 -> double conversion (tests/test_lane_sim.cpp pins both).
// random_vectors unpacks the same blocks, so lane L of block B is
// byte-identical to vector 64*B + L of the unpacked representation for any
// seed.

#pragma once

#include <cstdint>
#include <random>
#include <vector>

namespace plee::sim {

/// Lanes per stimulus block: one bit per vector in a 64-bit word.
inline constexpr std::size_t k_lanes = 64;

/// Up to 64 input vectors in transposed (lane-packed) layout.
struct stimulus_block {
    std::size_t width = 0;        ///< inputs per vector
    std::size_t num_vectors = 0;  ///< occupied lanes, 1..64
    /// One word per input; bit L holds vector L's value of that input.
    /// Bits at and above num_vectors are zero.
    std::vector<std::uint64_t> words;

    /// Mask with the low num_vectors bits set — the block's occupied lanes.
    std::uint64_t lane_mask() const {
        return num_vectors >= k_lanes ? ~std::uint64_t{0}
                                      : (std::uint64_t{1} << num_vectors) - 1;
    }

    /// Value of input `input` in vector (lane) `vec`.
    bool bit(std::size_t vec, std::size_t input) const {
        return (words[input] >> vec) & 1u;
    }

    /// Unpacks one lane into a caller-owned reusable buffer (resized to
    /// width) — the only place a per-vector bool vector is materialized.
    void extract(std::size_t vec, std::vector<bool>& out) const;
};

/// One stimulus bit from one mt19937_64 output x, exactly as
/// std::bernoulli_distribution(0.5) decides it: double(x) / 2^64 < 0.5.
/// Under round-to-nearest, double(x) < 2^63 exactly when x < 2^63 - 512
/// (2^63 - 512 is the midpoint between 2^63 and the double below it, and
/// the tie rounds to the even 2^63).
constexpr bool draw_bit(std::uint64_t x) { return x < 0x7FFFFFFFFFFFFE00ull; }

/// make_stimulus's stream, one block at a time, so a caller can poll a
/// deadline between blocks: the blocks of successive next() calls are the
/// blocks make_stimulus returns for the same width and seed.
class stimulus_stream {
public:
    stimulus_stream(std::size_t width, std::uint64_t seed)
        : width_(width), rng_(seed) {}

    /// Draws the next block of `num_vectors` (1..64) vectors.
    stimulus_block next(std::size_t num_vectors);

private:
    std::size_t width_;
    std::mt19937_64 rng_;
};

/// Deterministic pseudo-random stimulus, packed: ceil(count / 64) blocks,
/// the last one partially filled.  Same bit stream as random_vectors.
std::vector<stimulus_block> make_stimulus(std::size_t count, std::size_t width,
                                          std::uint64_t seed);

}  // namespace plee::sim
