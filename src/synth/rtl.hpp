// rtl.hpp — RTL-level module construction on top of the expression arena.
//
// The ITC99 benchmarks the paper evaluates were written in RTL VHDL and
// pushed through a commercial synthesis tool.  module_builder is this
// repository's equivalent front-end: multi-bit buses of expressions,
// registers with initial values, ripple-carry arithmetic, comparators,
// multiplexers and shifters, all finally lowered to a flat LUT4+DFF netlist
// by the technology mapper.  Ripple-carry adders matter particularly: the
// carry chain is the canonical Early Evaluation win the paper builds on.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"
#include "synth/expr.hpp"

namespace plee::syn {

/// A little-endian bus of expression bits (index 0 = LSB).
using bus = std::vector<expr_id>;

class module_builder {
public:
    explicit module_builder(std::string name = "top");

    expr_arena& arena() { return arena_; }
    const std::string& name() const { return name_; }

    // --- Ports -----------------------------------------------------------
    expr_id input(const std::string& name);
    bus input_bus(const std::string& name, int width);
    void output(const std::string& name, expr_id e);
    void output_bus(const std::string& name, const bus& b);

    // --- State -----------------------------------------------------------
    /// Creates `width` DFFs and returns their Q bus.  The register's next
    /// value must be supplied later via connect_register.
    bus new_register(const std::string& name, int width, std::uint64_t init = 0);
    void connect_register(const bus& q, const bus& next);

    // --- Literals ---------------------------------------------------------
    expr_id lit(bool v) { return arena_.konst(v); }
    bus literal(std::uint64_t value, int width);

    // --- Arithmetic (ripple-carry) ----------------------------------------
    struct add_result {
        bus sum;
        expr_id carry;
    };
    add_result add(const bus& a, const bus& b, expr_id cin);
    add_result add(const bus& a, const bus& b);
    struct sub_result {
        bus diff;
        expr_id borrow;
    };
    sub_result sub(const bus& a, const bus& b);
    bus inc(const bus& a);

    // --- Comparison --------------------------------------------------------
    expr_id eq(const bus& a, const bus& b);
    expr_id eq_const(const bus& a, std::uint64_t v);
    expr_id ult(const bus& a, const bus& b);  ///< unsigned a < b
    expr_id ule(const bus& a, const bus& b);
    expr_id ugt(const bus& a, const bus& b) { return ult(b, a); }
    expr_id reduce_or(const bus& a) { return arena_.or_all(a); }
    expr_id reduce_xor(const bus& a) { return arena_.xor_all(a); }

    // --- Bitwise / steering -------------------------------------------------
    bus bw_and(const bus& a, const bus& b);
    bus bw_or(const bus& a, const bus& b);
    bus bw_xor(const bus& a, const bus& b);
    bus bw_not(const bus& a);
    bus mux2(expr_id sel, const bus& when_true, const bus& when_false);
    /// Generalized mux: `options.size()` must equal 2^sel.size(); index is
    /// interpreted little-endian over `sel`.
    bus mux_tree(const bus& sel, const std::vector<bus>& options);
    /// One-hot decode of `sel` (2^width outputs).
    std::vector<expr_id> decode(const bus& sel);

    // --- Constant-distance shifts -------------------------------------------
    bus shl(const bus& a, int amount, expr_id fill);
    bus shr(const bus& a, int amount, expr_id fill);
    bus rotl(const bus& a, int amount);

    // --- Finalization --------------------------------------------------------
    /// Lowers all outputs and register next-state functions through the LUT4
    /// technology mapper, runs cleanup passes and returns the flat netlist.
    nl::netlist build();

private:
    struct register_bit {
        nl::cell_id dff = nl::k_invalid_cell;
        expr_id next = k_invalid_expr;
        bool connected = false;
    };
    struct pending_output {
        std::string name;
        expr_id value;
    };

    std::string name_;
    nl::netlist nl_;
    expr_arena arena_;
    std::unordered_map<expr_id, std::size_t> reg_of_q_;  ///< Q expr -> register_bits_ idx
    std::vector<register_bit> register_bits_;
    std::vector<pending_output> pending_outputs_;
    bool built_ = false;
};

}  // namespace plee::syn
