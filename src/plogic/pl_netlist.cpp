#include "plogic/pl_netlist.hpp"

#include <algorithm>
#include <bit>
#include <sstream>
#include <stdexcept>

namespace plee::pl {

const char* to_string(gate_kind kind) {
    switch (kind) {
        case gate_kind::source: return "source";
        case gate_kind::const_source: return "const";
        case gate_kind::sink: return "sink";
        case gate_kind::compute: return "compute";
        case gate_kind::through: return "through";
        case gate_kind::trigger: return "trigger";
    }
    return "?";
}

gate_id pl_netlist::add_gate(gate_kind kind, std::string_view name) {
    mutated();
    pl_gate g;
    g.kind = kind;
    g.name_off = static_cast<std::uint32_t>(names_.size());
    g.name_len = static_cast<std::uint32_t>(name.size());
    names_.append(name);
    gates_.push_back(g);
    const gate_id id = static_cast<gate_id>(gates_.size() - 1);
    if (kind == gate_kind::source) sources_.push_back(id);
    if (kind == gate_kind::sink) sinks_.push_back(id);
    return id;
}

// The mutators check their arguments before mutated(), so a rejected call
// leaves the verify memo and the CSR alone.

void pl_netlist::set_function(gate_id g, const bf::truth_table& fn) {
    if (g >= gates_.size()) {
        throw std::invalid_argument("set_function: gate out of range");
    }
    if (gates_[g].kind != gate_kind::compute && gates_[g].kind != gate_kind::trigger) {
        throw std::invalid_argument("set_function: gate has no LUT");
    }
    mutated();
    gates_[g].function = fn;
}

void pl_netlist::set_const_value(gate_id g, bool value) {
    if (g >= gates_.size()) {
        throw std::invalid_argument("set_const_value: gate out of range");
    }
    if (gates_[g].kind != gate_kind::const_source) {
        throw std::invalid_argument("set_const_value: not a constant source");
    }
    mutated();
    gates_[g].const_value = value;
}

edge_id pl_netlist::add_data_edge(gate_id from, gate_id to, int to_pin,
                                  bool init_token, bool init_value) {
    if (from >= gates_.size() || to >= gates_.size()) {
        throw std::invalid_argument("add_data_edge: gate out of range");
    }
    pl_gate& g = gates_[to];
    if (to_pin >= 0) {
        if (to_pin != g.num_data) {
            throw std::invalid_argument("add_data_edge: pins must arrive in order");
        }
        if (g.num_data == g.data_pins.size()) {
            throw std::invalid_argument("add_data_edge: more than 8 data pins");
        }
    }
    mutated();
    const edge_id id = static_cast<edge_id>(edges_.size());
    if (to_pin >= 0) g.data_pins[g.num_data++] = id;
    edges_.push_back({from, to, edge_kind::data, to_pin, init_token, init_value});
    return id;
}

edge_id pl_netlist::add_ack_edge(gate_id from, gate_id to, bool init_token) {
    if (from >= gates_.size() || to >= gates_.size()) {
        throw std::invalid_argument("add_ack_edge: gate out of range");
    }
    mutated();
    edges_.push_back({from, to, edge_kind::ack, -1, init_token, false});
    return static_cast<edge_id>(edges_.size() - 1);
}

gate_id pl_netlist::attach_trigger(gate_id master, const bf::truth_table& fn,
                                   std::uint32_t support_mask) {
    if (master >= gates_.size()) {
        throw std::invalid_argument("attach_trigger: gate out of range");
    }
    const pl_gate m = gates_[master];
    if (m.kind != gate_kind::compute) {
        throw std::invalid_argument("attach_trigger: master must be a compute gate");
    }
    if (m.trigger != k_invalid_gate) {
        throw std::logic_error("attach_trigger: master already has a trigger");
    }
    if (fn.num_vars() != std::popcount(support_mask)) {
        throw std::invalid_argument("attach_trigger: function arity != support size");
    }
    if ((support_mask >> m.num_data) != 0) {
        throw std::invalid_argument("attach_trigger: support names a pin the master lacks");
    }
    if (support_mask == 0 || std::popcount(support_mask) == m.num_data) {
        throw std::invalid_argument(
            "attach_trigger: support must be a non-empty proper subset of the "
            "master's pins");
    }

    // A passed check survives the gadget, which keeps a well-formed, live
    // and safe netlist so (the proof is in the header).
    const bool checked = verified_.passed.load();
    std::string trig_name(name(master));
    trig_name += trig_name.empty() ? "ee" : "_ee";
    const gate_id trig = add_gate(gate_kind::trigger, trig_name);
    gates_[trig].function = fn;
    gates_[trig].master = master;
    gates_[trig].trigger_support = support_mask;

    // Tap the master's selected input signals: a new data fanout edge from
    // each producer, plus the acknowledge feedback that keeps the new edge on
    // a single-token cycle.
    int pin = 0;
    for (std::uint32_t rest = support_mask; rest != 0; rest &= rest - 1) {
        // By value: add_data_edge below grows edges_ and would invalidate a
        // reference into it before init_token is read for the ack edge.
        const pl_edge src_edge = edges_[m.data_pins[std::countr_zero(rest)]];
        add_data_edge(src_edge.from, trig, pin++, src_edge.init_token,
                      src_edge.init_value);
        add_ack_edge(trig, src_edge.from, !src_edge.init_token);
    }

    // The efire channel: trigger -> master data token each wave, acknowledged
    // by the master (the extra Muller-C element pair of Figure 2).
    const edge_id efire = add_data_edge(trig, master, -1, false, false);
    add_ack_edge(master, trig, true);

    gates_[master].trigger = trig;
    gates_[master].efire_in = efire;
    verified_.passed.store(checked);
    return trig;
}

void pl_netlist::build_adjacency() const {
    adjacency& a = adjacency_;
    const std::lock_guard<std::mutex> lock(a.mu);
    if (a.built.load(std::memory_order_relaxed)) return;
    // A counting sort by endpoint keeps each list in edge-id order.
    const std::size_t n = gates_.size();
    a.in_begin.assign(n + 1, 0);
    a.out_begin.assign(n + 1, 0);
    std::vector<std::uint32_t> indeg(n, 0);  // token-free in-edges
    for (const pl_edge& e : edges_) {
        ++a.in_begin[e.to + 1];
        ++a.out_begin[e.from + 1];
        if (!e.init_token) ++indeg[e.to];
    }
    for (std::size_t g = 0; g < n; ++g) {
        a.in_begin[g + 1] += a.in_begin[g];
        a.out_begin[g + 1] += a.out_begin[g];
    }
    a.in_ids.resize(edges_.size());
    a.out_ids.resize(edges_.size());
    std::vector<std::uint32_t> in_next(a.in_begin.begin(), a.in_begin.end() - 1);
    std::vector<std::uint32_t> out_next(a.out_begin.begin(), a.out_begin.end() - 1);
    for (edge_id i = 0; i < edges_.size(); ++i) {
        a.in_ids[in_next[edges_[i].to]++] = i;
        a.out_ids[out_next[edges_[i].from]++] = i;
    }

    // The token-free order: FIFO Kahn over the unmarked edges, the gates
    // with none leading in id order.
    a.order.clear();
    for (gate_id g = 0; g < n; ++g) {
        if (indeg[g] == 0) a.order.push_back(g);
    }
    for (std::size_t head = 0; head < a.order.size(); ++head) {
        const gate_id g = a.order[head];
        for (std::uint32_t k = a.out_begin[g]; k < a.out_begin[g + 1]; ++k) {
            const pl_edge& e = edges_[a.out_ids[k]];
            if (!e.init_token && --indeg[e.to] == 0) a.order.push_back(e.to);
        }
    }
    a.built.store(true, std::memory_order_release);
}

std::size_t pl_netlist::num_pl_gates() const {
    return static_cast<std::size_t>(
        std::count_if(gates_.begin(), gates_.end(), [](const pl_gate& g) {
            return g.kind == gate_kind::compute || g.kind == gate_kind::through;
        }));
}

std::size_t pl_netlist::num_trigger_gates() const {
    return static_cast<std::size_t>(
        std::count_if(gates_.begin(), gates_.end(),
                      [](const pl_gate& g) { return g.kind == gate_kind::trigger; }));
}

std::size_t pl_netlist::num_ack_edges() const {
    return static_cast<std::size_t>(
        std::count_if(edges_.begin(), edges_.end(),
                      [](const pl_edge& e) { return e.kind == edge_kind::ack; }));
}

mg_report pl_netlist::verify() const {
    if (verified_.passed.load()) return {true, true, true, {}};
    mg_report report = verify_marked_graph(*this);
    if (report.ok()) verified_.passed.store(true);
    return report;
}

std::vector<int> pl_netlist::arrival_depth() const {
    // Longest path over token-free data edges, in token-free order.
    // depth[g] is the arrival depth of g's *output* signal: 0 for
    // token-providing gates (sources, constant sources, through registers),
    // 1 + max(producer depths) for compute/trigger gates.  Only
    // compute/trigger producers pass their depth on.
    const std::span<const gate_id> order = token_free_order();
    if (order.size() != gates_.size()) {
        throw std::logic_error("arrival_depth: token-free directed cycle");
    }
    std::vector<int> in_depth(gates_.size(), 0);
    std::vector<int> depth(gates_.size(), 0);
    for (const gate_id g : order) {
        const gate_kind kind = gates_[g].kind;
        if (kind != gate_kind::compute && kind != gate_kind::trigger) {
            // Sinks keep the observed output depth, for reporting; token
            // providers restart the wave at depth 0.
            depth[g] = kind == gate_kind::sink ? in_depth[g] : 0;
            continue;
        }
        depth[g] = in_depth[g] + 1;
        for (const edge_id idx : out_edges(g)) {
            const pl_edge& e = edges_[idx];
            if (e.kind == edge_kind::data && !e.init_token) {
                in_depth[e.to] = std::max(in_depth[e.to], depth[g]);
            }
        }
    }
    return depth;
}

std::string pl_netlist::to_dot(const std::string& graph_name) const {
    std::ostringstream os;
    os << "digraph " << graph_name << " {\n  rankdir=LR;\n";
    for (gate_id g = 0; g < gates_.size(); ++g) {
        os << "  g" << g << " [label=\"" << to_string(gates_[g].kind);
        if (!name(g).empty()) os << "\\n" << name(g);
        os << "\", shape="
           << (gates_[g].kind == gate_kind::trigger ? "diamond" : "ellipse") << "];\n";
    }
    for (const pl_edge& e : edges_) {
        os << "  g" << e.from << " -> g" << e.to;
        os << " [style=" << (e.kind == edge_kind::ack ? "dashed" : "solid");
        if (e.init_token) os << ", label=\"*\"";
        os << "];\n";
    }
    os << "}\n";
    return os.str();
}

}  // namespace plee::pl
