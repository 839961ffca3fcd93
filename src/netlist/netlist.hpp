// netlist.hpp — synchronous LUT+DFF gate-level netlists.
//
// Phased Logic is a *direct mapping* design style: "designers may use
// synthesis tools and design styles that are currently used for the design of
// synchronous digital circuitry" and the synchronous result is mapped
// gate-for-gate onto PL cells.  This module is the synchronous side of that
// contract: a flat netlist of k-input LUTs (k <= 4 after technology mapping,
// matching the paper's LUT4 PL gate) and D flip-flops, with primary
// input/output ports.  One cell drives exactly one net, so a cell id doubles
// as the id of the net it drives.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bool/truth_table.hpp"

namespace plee::nl {

/// Identifies a cell and, equivalently, the net driven by that cell.
using cell_id = std::uint32_t;

inline constexpr cell_id k_invalid_cell = 0xffffffffu;

enum class cell_kind : std::uint8_t {
    input,     ///< primary input port
    constant,  ///< constant driver (folded away before PL mapping where possible)
    lut,       ///< combinational look-up table, 0 < fanin <= 8 (4 after LUT4 mapping)
    dff,       ///< positive-edge D flip-flop with initial state
    output,    ///< primary output port (single fanin, drives nothing)
};

const char* to_string(cell_kind kind);

struct cell {
    cell_kind kind = cell_kind::lut;
    std::string name;                  ///< required for ports, optional otherwise
    std::vector<cell_id> fanins;       ///< lut: 1..6, dff: {D}, output: {src}
    bf::truth_table function{0};       ///< lut only; arity == fanins.size()
    bool const_value = false;          ///< constant only
    bool init_value = false;           ///< dff only: state before the first edge
};

/// A flat synchronous netlist.  Cells are append-only; DFF data inputs may be
/// connected after creation so that state feedback loops can be expressed.
class netlist {
public:
    cell_id add_input(std::string name);
    cell_id add_constant(bool value);
    /// Adds a LUT cell; `function` arity must equal `fanins.size()`.
    cell_id add_lut(const bf::truth_table& function, std::vector<cell_id> fanins,
                    std::string name = "");
    /// Adds a DFF whose D input may be `k_invalid_cell` (connect later).
    cell_id add_dff(cell_id d, bool init, std::string name = "");
    /// Connects (or reconnects) the D input of a DFF.
    void set_dff_input(cell_id dff, cell_id d);
    cell_id add_output(std::string name, cell_id src);

    std::size_t num_cells() const { return cells_.size(); }
    const cell& at(cell_id id) const;
    const std::vector<cell>& cells() const { return cells_; }

    const std::vector<cell_id>& inputs() const { return inputs_; }
    const std::vector<cell_id>& outputs() const { return outputs_; }
    const std::vector<cell_id>& dffs() const { return dffs_; }

    std::size_t num_luts() const;
    /// Count of cells a PL mapping turns into PL gates (LUTs + DFFs).  This is
    /// the paper's "PL Gates" area unit.
    std::size_t num_pl_mappable() const { return num_luts() + dffs_.size(); }

    /// Cells in a combinational-safe evaluation order: inputs, constants and
    /// DFFs first (their values are sources within a cycle), then LUTs in
    /// dependency order, then outputs.  Throws if a purely combinational
    /// cycle exists.
    std::vector<cell_id> topo_order() const;

    /// Structural checks: fanins resolved and in range, LUT arity matches,
    /// port names unique and non-empty, no combinational cycles.  Throws
    /// std::logic_error with a description on the first violation.
    void validate() const;

    /// True when every LUT has at most `max_fanin` inputs.
    bool respects_fanin_limit(int max_fanin) const;

    /// Graphviz dump for documentation and debugging.
    std::string to_dot(const std::string& graph_name = "netlist") const;

private:
    cell_id add_cell(cell c);

    std::vector<cell> cells_;
    std::vector<cell_id> inputs_;
    std::vector<cell_id> outputs_;
    std::vector<cell_id> dffs_;
};

}  // namespace plee::nl
