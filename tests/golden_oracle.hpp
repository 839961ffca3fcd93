// golden_oracle.hpp — the per-cell synchronous reference evaluation, for
// tests only.
//
// nl::sync_simulator and nl::sync_lane_simulator compile their netlist into
// a flat program (see sync_sim.hpp).  This oracle interprets the netlist
// instead: one pass over topo_order() that switches on each cell's kind
// and reads its fanins, constant and function through the netlist.  It
// shares no code with the compiled models beyond netlist and truth_table,
// so it is an independent oracle for both.  One class serves both shapes:
// with lanes = false every net holds 0 or 1 (truth_table::eval on a minterm
// index); with lanes = true it holds one bit per lane
// (truth_table::eval_lanes).  Header-only; slow and simple by design.

#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"

namespace plee::nl::testing {

class golden_oracle {
public:
    golden_oracle(const netlist& nl, bool lanes)
        : nl_(nl), order_(nl.topo_order()), ones_(lanes ? ~std::uint64_t{0} : 1),
          lanes_(lanes), values_(nl.num_cells(), 0), state_(nl.num_cells(), 0) {
        for (cell_id id : nl_.dffs()) state_[id] = nl_.at(id).init_value ? ones_ : 0;
    }

    /// Drives a primary input: 0/1, or one bit per lane.
    void set_input(cell_id input, std::uint64_t value) { values_[input] = value; }

    void eval() {
        std::uint64_t fanin_lanes[bf::k_max_vars];
        for (cell_id id : order_) {
            const cell& c = nl_.at(id);
            switch (c.kind) {
                case cell_kind::input:
                    break;  // externally driven
                case cell_kind::constant:
                    values_[id] = c.const_value ? ones_ : 0;
                    break;
                case cell_kind::dff:
                    values_[id] = state_[id];
                    break;
                case cell_kind::lut:
                    if (lanes_) {
                        for (std::size_t i = 0; i < c.fanins.size(); ++i) {
                            fanin_lanes[i] = values_[c.fanins[i]];
                        }
                        values_[id] = c.function.eval_lanes(fanin_lanes);
                    } else {
                        std::uint32_t minterm = 0;
                        for (std::size_t i = 0; i < c.fanins.size(); ++i) {
                            if (values_[c.fanins[i]] != 0) minterm |= 1u << i;
                        }
                        values_[id] = c.function.eval(minterm) ? 1 : 0;
                    }
                    break;
                case cell_kind::output:
                    values_[id] = values_[c.fanins.front()];
                    break;
            }
        }
    }

    /// The clock edge: every DFF state <= its D net's value.
    void latch() {
        for (cell_id id : nl_.dffs()) state_[id] = values_[nl_.at(id).fanins.front()];
    }

    std::uint64_t value_of(cell_id id) const { return values_[id]; }

private:
    const netlist& nl_;
    std::vector<cell_id> order_;
    std::uint64_t ones_;
    bool lanes_;
    std::vector<std::uint64_t> values_;
    std::vector<std::uint64_t> state_;  ///< DFF state, by cell id
};

}  // namespace plee::nl::testing
