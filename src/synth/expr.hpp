// expr.hpp — Boolean expression DAG with structural hashing.
//
// The synthesis front-end (the stand-in for the commercial RTL synthesis the
// paper ran before PL mapping) builds combinational logic as expressions over
// primary inputs and register outputs, then lowers them onto LUT4 cells with
// the technology mapper.  Structural hashing keeps shared subterms shared, so
// common subexpressions become shared LUT cones exactly once.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.hpp"

namespace plee::syn {

using expr_id = std::uint32_t;
inline constexpr expr_id k_invalid_expr = 0xffffffffu;

enum class expr_op : std::uint8_t { var, konst, not_, and_, or_, xor_ };

struct expr_node {
    expr_op op = expr_op::konst;
    expr_id a = k_invalid_expr;   ///< first operand (unary/binary ops)
    expr_id b = k_invalid_expr;   ///< second operand (binary ops)
    nl::cell_id var_cell = nl::k_invalid_cell;  ///< var: driving netlist cell
    bool value = false;           ///< konst only
    std::uint32_t use_count = 0;  ///< number of parents (for mapper sharing)
};

/// Append-only arena of hashed expression nodes.  All binary combinators are
/// normalized (commutative operand ordering, constant folding, idempotence
/// and involution simplifications) so trivially-equal expressions unify.
class expr_arena {
public:
    expr_id var(nl::cell_id cell);
    expr_id konst(bool v);
    expr_id not_(expr_id a);
    expr_id and_(expr_id a, expr_id b);
    expr_id or_(expr_id a, expr_id b);
    expr_id xor_(expr_id a, expr_id b);
    expr_id xnor_(expr_id a, expr_id b) { return not_(xor_(a, b)); }

    /// 2:1 multiplexer: sel ? a : b.
    expr_id mux(expr_id sel, expr_id a, expr_id b);

    /// Balanced n-ary reductions (empty input yields the op identity).
    expr_id and_all(const std::vector<expr_id>& xs);
    expr_id or_all(const std::vector<expr_id>& xs);
    expr_id xor_all(const std::vector<expr_id>& xs);

    const expr_node& at(expr_id id) const { return nodes_[id]; }
    std::size_t size() const { return nodes_.size(); }

    /// Reference-count bump used when an expression gains an external parent
    /// (e.g. it is both a module output and a register input).
    void add_use(expr_id id) { ++nodes_[id].use_count; }

    /// Recursive evaluation under an assignment of values to var cells.
    /// Intended for tests; the mapper produces the production evaluator.
    bool eval(expr_id id,
              const std::unordered_map<nl::cell_id, bool>& assignment) const;

private:
    expr_id intern(expr_node node);
    expr_id reduce_balanced(std::vector<expr_id> xs, expr_op op, bool identity);

    struct node_key {
        expr_op op;
        expr_id a;
        expr_id b;
        nl::cell_id var_cell;
        bool value;
        bool operator==(const node_key&) const = default;
    };
    struct node_key_hash {
        std::size_t operator()(const node_key& k) const;
    };

    std::vector<expr_node> nodes_;
    std::unordered_map<node_key, expr_id, node_key_hash> hash_;
};

}  // namespace plee::syn
