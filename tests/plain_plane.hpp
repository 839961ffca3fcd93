// plain_plane.hpp — checks of pl_simulator's plain time plane, for tests
// only.
//
// A run of an EE netlist times two planes at once: the netlist as it is,
// and the netlist with every trigger gate and its edges removed, which is
// the mapping before the EE pass.  The helpers below compare the plain
// plane of such a run with a reference run of that mapping on the same
// stimulus, bit for bit: outputs, every wave's times, every counter.

#pragma once

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/pl_sim.hpp"

namespace plee::sim::testing {

/// Every counter of `got` equals the one of `want`.
inline void expect_same_stats(const sim_run_stats& want, const sim_run_stats& got,
                              const std::string& label = "") {
    EXPECT_EQ(want.events, got.events) << label;
    EXPECT_EQ(want.firings, got.firings) << label;
    EXPECT_EQ(want.ee_hits, got.ee_hits) << label;
    EXPECT_EQ(want.ee_misses, got.ee_misses) << label;
    EXPECT_EQ(want.ee_wins, got.ee_wins) << label;
    EXPECT_EQ(want.lane_blocks, got.lane_blocks) << label;
    EXPECT_EQ(want.lane_vectors, got.lane_vectors) << label;
    EXPECT_EQ(want.lane_splits, got.lane_splits) << label;
    EXPECT_EQ(want.lane_slab_deposits, got.lane_slab_deposits) << label;
}

/// The plain plane of `got`, a sequential run of an EE netlist, against
/// `want`, a run of the mapping without its triggers on the same vectors.
inline void expect_plain_waves(const std::vector<wave_record>& want,
                               const std::vector<wave_record>& got,
                               const std::string& label = "") {
    ASSERT_EQ(want.size(), got.size()) << label;
    for (std::size_t k = 0; k < want.size(); ++k) {
        EXPECT_EQ(want[k].outputs, got[k].outputs) << label << " wave " << k;
        EXPECT_EQ(want[k].release_time, got[k].plain_release_time)
            << label << " wave " << k;
        EXPECT_EQ(want[k].input_stable, got[k].plain_input_stable)
            << label << " wave " << k;
        EXPECT_EQ(want[k].output_stable, got[k].plain_output_stable)
            << label << " wave " << k;
        EXPECT_EQ(want[k].delay(), got[k].plain_delay()) << label << " wave " << k;
    }
}

/// The same for one lane block: every occupied lane of `want` against the
/// plain plane of `got`.
inline void expect_plain_lanes(const lane_block_result& want,
                               const lane_block_result& got,
                               const std::string& label = "") {
    ASSERT_EQ(want.num_vectors, got.num_vectors) << label;
    EXPECT_EQ(want.outputs, got.outputs) << label;
    for (std::size_t lane = 0; lane < want.num_vectors; ++lane) {
        EXPECT_EQ(want.input_stable[lane], got.plain_input_stable)
            << label << " lane " << lane;
        EXPECT_EQ(want.output_stable[lane], got.plain_output_stable)
            << label << " lane " << lane;
    }
}

}  // namespace plee::sim::testing
