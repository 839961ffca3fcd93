#include "synth/rtl.hpp"

#include <stdexcept>

#include "netlist/transform.hpp"
#include "synth/tech_map.hpp"

namespace plee::syn {

module_builder::module_builder(std::string name) : name_(std::move(name)) {}

expr_id module_builder::input(const std::string& name) {
    return arena_.var(nl_.add_input(name));
}

bus module_builder::input_bus(const std::string& name, int width) {
    bus b;
    b.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
        b.push_back(input(name + "[" + std::to_string(i) + "]"));
    }
    return b;
}

void module_builder::output(const std::string& name, expr_id e) {
    arena_.add_use(e);
    pending_outputs_.push_back({name, e});
}

void module_builder::output_bus(const std::string& name, const bus& b) {
    for (std::size_t i = 0; i < b.size(); ++i) {
        output(name + "[" + std::to_string(i) + "]", b[i]);
    }
}

bus module_builder::new_register(const std::string& name, int width,
                                 std::uint64_t init) {
    bus q;
    q.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
        const bool bit_init = (init >> i) & 1u;
        const nl::cell_id dff = nl_.add_dff(nl::k_invalid_cell, bit_init,
                                            name + "[" + std::to_string(i) + "]");
        const expr_id qe = arena_.var(dff);
        reg_of_q_.emplace(qe, register_bits_.size());
        register_bits_.push_back({dff, k_invalid_expr, false});
        q.push_back(qe);
    }
    return q;
}

void module_builder::connect_register(const bus& q, const bus& next) {
    if (q.size() != next.size()) {
        throw std::invalid_argument("connect_register: width mismatch");
    }
    for (std::size_t i = 0; i < q.size(); ++i) {
        auto it = reg_of_q_.find(q[i]);
        if (it == reg_of_q_.end()) {
            throw std::invalid_argument("connect_register: bus bit is not a register Q");
        }
        register_bit& rb = register_bits_[it->second];
        if (rb.connected) {
            throw std::logic_error("connect_register: register already connected");
        }
        rb.next = next[i];
        rb.connected = true;
        arena_.add_use(next[i]);
    }
}

bus module_builder::literal(std::uint64_t value, int width) {
    bus b;
    b.reserve(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) b.push_back(lit((value >> i) & 1u));
    return b;
}

module_builder::add_result module_builder::add(const bus& a, const bus& b,
                                               expr_id cin) {
    if (a.size() != b.size()) throw std::invalid_argument("add: width mismatch");
    bus sum;
    sum.reserve(a.size());
    expr_id carry = cin;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const expr_id axb = arena_.xor_(a[i], b[i]);
        sum.push_back(arena_.xor_(axb, carry));
        // carry-out = ab + c(a ^ b): the paper's Table 1 master function.
        carry = arena_.or_(arena_.and_(a[i], b[i]), arena_.and_(carry, axb));
    }
    return {std::move(sum), carry};
}

module_builder::add_result module_builder::add(const bus& a, const bus& b) {
    return add(a, b, lit(false));
}

module_builder::sub_result module_builder::sub(const bus& a, const bus& b) {
    // a - b = a + ~b + 1; borrow = NOT carry-out.
    add_result r = add(a, bw_not(b), lit(true));
    return {std::move(r.sum), arena_.not_(r.carry)};
}

bus module_builder::inc(const bus& a) {
    // Increment with balanced prefix-AND carries (the shape a synthesis tool
    // extracts for "+1"): carry into bit i is AND(a[0..i-1]), log-depth, so
    // the bits arrive with little skew — unlike a data adder's ripple chain.
    bus r;
    r.reserve(a.size());
    std::vector<expr_id> prefix;
    expr_id carry = lit(true);
    for (std::size_t i = 0; i < a.size(); ++i) {
        r.push_back(arena_.xor_(a[i], carry));
        prefix.push_back(a[i]);
        carry = arena_.and_all(prefix);
    }
    return r;
}

expr_id module_builder::eq(const bus& a, const bus& b) {
    if (a.size() != b.size()) throw std::invalid_argument("eq: width mismatch");
    std::vector<expr_id> bits;
    bits.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) bits.push_back(arena_.xnor_(a[i], b[i]));
    return arena_.and_all(bits);
}

expr_id module_builder::eq_const(const bus& a, std::uint64_t v) {
    return eq(a, literal(v, static_cast<int>(a.size())));
}

expr_id module_builder::ult(const bus& a, const bus& b) {
    // Balanced-tree magnitude comparator (lt, eq) over halves — log depth,
    // matching how commercial synthesis maps relational operators.  (The
    // paper's Early Evaluation wins come from genuine carry chains in data
    // adders, not from comparators that a tool would tree-ify anyway.)
    if (a.size() != b.size()) throw std::invalid_argument("ult: width mismatch");
    struct cmp {
        expr_id lt;
        expr_id eq;
    };
    auto compare = [&](auto&& self, std::size_t lo, std::size_t hi) -> cmp {
        if (hi - lo == 1) {
            return {arena_.and_(arena_.not_(a[lo]), b[lo]), arena_.xnor_(a[lo], b[lo])};
        }
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        const cmp low = self(self, lo, mid);
        const cmp high = self(self, mid, hi);
        return {arena_.or_(high.lt, arena_.and_(high.eq, low.lt)),
                arena_.and_(high.eq, low.eq)};
    };
    return compare(compare, 0, a.size()).lt;
}

expr_id module_builder::ule(const bus& a, const bus& b) {
    return arena_.not_(ult(b, a));
}

bus module_builder::bw_and(const bus& a, const bus& b) {
    if (a.size() != b.size()) throw std::invalid_argument("bw_and: width mismatch");
    bus r;
    r.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) r.push_back(arena_.and_(a[i], b[i]));
    return r;
}

bus module_builder::bw_or(const bus& a, const bus& b) {
    if (a.size() != b.size()) throw std::invalid_argument("bw_or: width mismatch");
    bus r;
    r.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) r.push_back(arena_.or_(a[i], b[i]));
    return r;
}

bus module_builder::bw_xor(const bus& a, const bus& b) {
    if (a.size() != b.size()) throw std::invalid_argument("bw_xor: width mismatch");
    bus r;
    r.reserve(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) r.push_back(arena_.xor_(a[i], b[i]));
    return r;
}

bus module_builder::bw_not(const bus& a) {
    bus r;
    r.reserve(a.size());
    for (expr_id e : a) r.push_back(arena_.not_(e));
    return r;
}

bus module_builder::mux2(expr_id sel, const bus& when_true, const bus& when_false) {
    if (when_true.size() != when_false.size()) {
        throw std::invalid_argument("mux2: width mismatch");
    }
    bus r;
    r.reserve(when_true.size());
    for (std::size_t i = 0; i < when_true.size(); ++i) {
        r.push_back(arena_.mux(sel, when_true[i], when_false[i]));
    }
    return r;
}

bus module_builder::mux_tree(const bus& sel, const std::vector<bus>& options) {
    if (options.size() != (std::size_t{1} << sel.size())) {
        throw std::invalid_argument("mux_tree: option count != 2^sel bits");
    }
    std::vector<bus> layer = options;
    for (std::size_t level = 0; level < sel.size(); ++level) {
        std::vector<bus> next;
        next.reserve(layer.size() / 2);
        for (std::size_t i = 0; i + 1 < layer.size(); i += 2) {
            next.push_back(mux2(sel[level], layer[i + 1], layer[i]));
        }
        layer = std::move(next);
    }
    return layer.front();
}

std::vector<expr_id> module_builder::decode(const bus& sel) {
    const std::size_t n = std::size_t{1} << sel.size();
    std::vector<expr_id> out;
    out.reserve(n);
    for (std::size_t v = 0; v < n; ++v) {
        std::vector<expr_id> terms;
        terms.reserve(sel.size());
        for (std::size_t i = 0; i < sel.size(); ++i) {
            terms.push_back((v >> i) & 1u ? sel[i] : arena_.not_(sel[i]));
        }
        out.push_back(arena_.and_all(terms));
    }
    return out;
}

bus module_builder::shl(const bus& a, int amount, expr_id fill) {
    bus r(a.size(), fill);
    for (std::size_t i = static_cast<std::size_t>(amount); i < a.size(); ++i) {
        r[i] = a[i - static_cast<std::size_t>(amount)];
    }
    return r;
}

bus module_builder::shr(const bus& a, int amount, expr_id fill) {
    bus r(a.size(), fill);
    for (std::size_t i = 0; i + static_cast<std::size_t>(amount) < a.size(); ++i) {
        r[i] = a[i + static_cast<std::size_t>(amount)];
    }
    return r;
}

bus module_builder::rotl(const bus& a, int amount) {
    bus r(a.size(), k_invalid_expr);
    for (std::size_t i = 0; i < a.size(); ++i) {
        r[(i + static_cast<std::size_t>(amount)) % a.size()] = a[i];
    }
    return r;
}

nl::netlist module_builder::build() {
    if (built_) throw std::logic_error("module_builder::build: already built");
    built_ = true;
    for (const register_bit& rb : register_bits_) {
        if (!rb.connected) {
            throw std::logic_error("module_builder::build: unconnected register");
        }
    }

    tech_mapper mapper(arena_, nl_, 4);
    for (const register_bit& rb : register_bits_) {
        nl::cell_id d = mapper.lower(rb.next);
        nl_.set_dff_input(rb.dff, d);
    }
    for (const pending_output& po : pending_outputs_) {
        nl_.add_output(po.name, mapper.lower(po.value));
    }

    nl_.validate();
    return nl::cleanup(nl_).nl;
}

}  // namespace plee::syn
