// sync_sim.hpp — cycle-accurate synchronous reference simulator.
//
// A PL circuit produced by direct mapping is cycle-equivalent to its
// synchronous source: every PL gate fires exactly once per "wave" of tokens,
// registers advance one state per wave, and the values carried by tokens in
// wave k equal the synchronous wire values in clock cycle k.  This simulator
// provides the golden semantics that the phased-logic event simulator (with
// and without Early Evaluation) is tested against, cycle by cycle.
//
// Both simulators compile their netlist once, in the constructor, into a
// sync_program: the LUT cells in topo_order(), each with a fanin range into
// one flat cell-id array and a range of truth-table words, plus the (DFF, D),
// (output, source) and constant lists.  eval() runs the program straight
// through — one minterm index per LUT for one vector, the word mux-tree
// bf::truth_table::eval_word_lanes for 64 — with no per-cell dispatch and no
// netlist lookups; latch() walks the (DFF, D) pairs.  tests/golden_oracle.hpp
// keeps a per-cell switch evaluation as the independent oracle for both.

#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "netlist/netlist.hpp"

namespace plee::nl {

/// A netlist compiled for the golden models (see the header comment); both
/// simulators' constructors build one.
struct sync_program {
    /// One LUT: fanins[first_fanin, first_fanin + num_fanins) are its pins
    /// in order, words[first_word, ...) its function's words_for(num_fanins)
    /// truth-table words.
    struct lut_op {
        cell_id cell;
        std::uint32_t first_fanin;
        std::uint32_t first_word;
        std::uint32_t num_fanins;
    };
    struct dff_op {
        cell_id cell;
        cell_id d;
        bool init;  ///< the state before the first clock edge
    };

    std::vector<lut_op> luts;  ///< topo_order()
    std::vector<cell_id> fanins;
    std::vector<std::uint64_t> words;
    std::vector<dff_op> dffs;                          ///< netlist dffs() order
    std::vector<std::pair<cell_id, cell_id>> outputs;  ///< (output, source)
    std::vector<std::pair<cell_id, bool>> constants;   ///< (cell, value)
};

class sync_simulator {
public:
    /// Compiles `nl`.  Throws std::logic_error on a combinational cycle or
    /// an unresolved DFF or output fanin.
    explicit sync_simulator(const netlist& nl);

    /// Resets all DFFs to their initial values and clears inputs to 0.
    void reset();

    /// Assigns all primary inputs in netlist input order.
    void set_inputs(const std::vector<bool>& values);

    /// Propagates combinational logic for the current inputs and DFF states.
    void eval();

    /// The value on the net driven by `id` after the last eval().
    bool value_of(cell_id id) const { return values_[id]; }

    /// Primary output values, in netlist output order, after the last eval().
    std::vector<bool> output_values() const;

    /// The clock edge alone (DFF states <= D values); callers that already
    /// ran eval() can latch without paying a second propagation pass.
    void latch();

    /// Convenience: applies `inputs`, runs one full cycle and returns the
    /// output values observed *before* the clock edge.
    std::vector<bool> cycle(const std::vector<bool>& inputs);

private:
    const netlist& nl_;
    sync_program program_;
    std::vector<char> values_;  // per cell; char, not bool: no bitset proxies
    std::vector<char> state_;   // per DFF, in program_.dffs order
};

/// 64-lane bit-parallel version of sync_simulator: every net carries one
/// 64-bit word whose bit L is the net's value in lane L, and each lane is a
/// fully independent simulation (its own inputs and its own DFF state
/// trajectory).  One eval() pass evaluates all 64 lanes — LUTs collapse to
/// the mux-tree word kernel bf::truth_table::eval_word_lanes — which is what
/// makes the lane-parallel measure path ~an order of magnitude faster per
/// vector than 64 scalar passes.  Lane L of any word is bit-identical to a
/// scalar sync_simulator driven with lane L's inputs from the same reset
/// state (locked down by tests/test_lane_sim.cpp).
class sync_lane_simulator {
public:
    /// Compiles `nl`; throws like sync_simulator's constructor.
    explicit sync_lane_simulator(const netlist& nl);

    /// Resets every lane: DFFs to their initial values, inputs to 0.
    void reset();

    /// Assigns all primary inputs in netlist input order, one word each.
    void set_inputs(const std::uint64_t* lane_words, std::size_t count);

    /// Propagates combinational logic for the current inputs and DFF states
    /// in every lane at once.
    void eval();
    /// The clock edge alone (DFF states <= D values), all lanes.
    void latch();

    /// Lane word on the net driven by `id` after the last eval().
    std::uint64_t value_of(cell_id id) const { return values_[id]; }

    /// Post-eval() primary output words, netlist output order, written into
    /// `out` (must hold outputs().size() words).
    void output_values(std::uint64_t* out) const;

private:
    const netlist& nl_;
    sync_program program_;
    std::vector<std::uint64_t> values_;  ///< per cell: one bit per lane
    std::vector<std::uint64_t> state_;   ///< per DFF, in program_.dffs order
};

}  // namespace plee::nl
