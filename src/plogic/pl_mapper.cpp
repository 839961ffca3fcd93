#include "plogic/pl_mapper.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <stdexcept>

#include "plogic/marked_graph.hpp"

namespace plee::pl {

namespace {

/// Inserts identity-LUT slack buffers on register-to-register data edges
/// that lie on an all-register cycle.  Two adjacent "full" self-timed stages
/// cannot exchange tokens without an empty slot between them: the data edges
/// of such a cycle all carry initial tokens, so the corresponding acknowledge
/// edges are all empty and would form a token-free directed cycle (deadlock).
/// A buffer stage — functionally a wire — restores the needed slack.  Linear
/// register chains (shift registers) drain from the tail and need no buffers.
/// Returns the patched netlist, or nothing when no cycle needs a buffer.
std::optional<nl::netlist> insert_register_slack(const nl::netlist& src) {
    // The DFF->DFF direct-connection graph: a DFF's successor is the DFF its
    // D input comes from, if any.  Out-degree <= 1, so its strongly
    // connected components are simple cycles; find them by walking
    // successor chains.
    constexpr std::size_t none = static_cast<std::size_t>(-1);
    const std::vector<nl::cell_id>& dffs = src.dffs();
    const std::size_t n = dffs.size();
    std::vector<std::size_t> dff_index(src.num_cells(), none);
    for (std::size_t i = 0; i < n; ++i) dff_index[dffs[i]] = i;

    std::vector<char> color(n, 0);  // 0 unvisited, 1 on-path, 2 done
    std::vector<char> on_cycle(n, 0);
    bool any_cycle = false;
    std::vector<std::size_t> path;
    for (std::size_t start = 0; start < n; ++start) {
        if (color[start] != 0) continue;
        path.clear();
        std::size_t v = start;
        while (v != none && color[v] == 0) {
            color[v] = 1;
            path.push_back(v);
            v = dff_index[src.cells()[dffs[v]].fanins.front()];
        }
        if (v != none && color[v] == 1) {
            // A cycle: every node from v's occurrence on the path.
            const auto from = std::find(path.begin(), path.end(), v);
            for (auto it = from; it != path.end(); ++it) on_cycle[*it] = 1;
            any_cycle = true;
        }
        for (std::size_t p : path) color[p] = 2;
    }
    if (!any_cycle) return std::nullopt;

    nl::netlist out = src;
    const bf::truth_table identity = bf::truth_table::variable(1, 0);
    for (std::size_t i = 0; i < n; ++i) {
        if (!on_cycle[i]) continue;
        const nl::cell_id dff = dffs[i];
        const nl::cell_id d = out.at(dff).fanins.front();
        const nl::cell_id buffer = out.add_lut(identity, {d}, "slack");
        out.set_dff_input(dff, buffer);
    }
    return out;
}

}  // namespace

map_result map_to_phased_logic(const nl::netlist& input, const map_options& options) {
    input.validate();
    if (!input.respects_fanin_limit(bf::k_max_vars)) {
        throw std::invalid_argument(
            "map_to_phased_logic: netlist exceeds the PL gate fanin budget");
    }
    const std::optional<nl::netlist> patched = insert_register_slack(input);
    const nl::netlist& nl = patched ? *patched : input;

    map_result result;
    result.stats.slack_buffers = nl.num_cells() - input.num_cells();
    pl_netlist& pl = result.pl;
    result.gate_of_cell.assign(nl.num_cells(), k_invalid_gate);

    // --- Gates ---------------------------------------------------------------
    for (nl::cell_id id = 0; id < nl.num_cells(); ++id) {
        const nl::cell& c = nl.cells()[id];
        gate_id g = k_invalid_gate;
        switch (c.kind) {
            case nl::cell_kind::input:
                g = pl.add_gate(gate_kind::source, c.name);
                break;
            case nl::cell_kind::constant:
                g = pl.add_gate(gate_kind::const_source,
                                c.const_value ? "const1" : "const0");
                pl.set_const_value(g, c.const_value);
                break;
            case nl::cell_kind::lut:
                g = pl.add_gate(gate_kind::compute, c.name);
                pl.set_function(g, c.function);
                break;
            case nl::cell_kind::dff:
                g = pl.add_gate(gate_kind::through, c.name);
                break;
            case nl::cell_kind::output:
                g = pl.add_gate(gate_kind::sink, c.name);
                break;
        }
        result.gate_of_cell[id] = g;
    }

    // --- Data edges ------------------------------------------------------------
    // Only register outputs carry initial tokens.  Each data edge is also
    // kept as a (producer, consumer) fanout pair.
    std::size_t num_data = 0;
    for (const nl::cell& c : nl.cells()) num_data += c.fanins.size();
    std::vector<std::uint64_t> fanout_pairs;  // producer << 32 | consumer
    fanout_pairs.reserve(num_data);
    for (nl::cell_id id = 0; id < nl.num_cells(); ++id) {
        const nl::cell& c = nl.cells()[id];
        const gate_id g = result.gate_of_cell[id];
        for (std::size_t pin = 0; pin < c.fanins.size(); ++pin) {
            const nl::cell& p = nl.cells()[c.fanins[pin]];
            const gate_id u = result.gate_of_cell[c.fanins[pin]];
            const bool token = p.kind == nl::cell_kind::dff;
            pl.add_data_edge(u, g, static_cast<int>(pin), token, p.init_value);
            fanout_pairs.push_back(std::uint64_t{u} << 32 | g);
        }
    }

    // --- Acknowledge feedback insertion -----------------------------------------
    // The distinct fanout pairs in (producer, consumer) order; a pair is
    // marked when its producer is a register.
    std::sort(fanout_pairs.begin(), fanout_pairs.end());
    fanout_pairs.erase(std::unique(fanout_pairs.begin(), fanout_pairs.end()),
                       fanout_pairs.end());
    const auto producer = [](std::uint64_t p) { return static_cast<gate_id>(p >> 32); };
    const auto consumer = [](std::uint64_t p) { return static_cast<gate_id>(p); };
    const auto marked = [&](gate_id u) {
        return pl.gate(u).kind == gate_kind::through;
    };

    if (options.share_feedbacks) {
        // Reachability over the data edges, so far the netlist's only
        // edges; the synchronous source was combinationally acyclic, so the
        // token-free ones form a DAG.  The token-free order ranks the
        // siblings of the sharing pass; its positions are copied, because
        // the first add_ack_edge ends the span.
        const mg_reach reach = token_reach(pl);
        const std::span<const gate_id> order = pl.token_free_order();
        std::vector<std::uint32_t> topo_pos(order.size());
        for (std::uint32_t i = 0; i < order.size(); ++i) topo_pos[order[i]] = i;

        // One run of pairs per producer.
        std::vector<gate_id> consumers;
        std::vector<gate_id> acked;
        for (std::size_t first = 0; first < fanout_pairs.size();) {
            const gate_id u = producer(fanout_pairs[first]);
            const bool u_marked = marked(u);

            // Pass 1: natural-cycle elimination.
            consumers.clear();
            for (; first < fanout_pairs.size() && producer(fanout_pairs[first]) == u;
                 ++first) {
                const gate_id v = consumer(fanout_pairs[first]);
                const bool covered = u_marked ? reach.reach0.test(v, u)
                                              : reach.reach_le1.test(v, u);
                if (covered) {
                    ++result.stats.acks_saved_by_natural_cycles;
                } else {
                    consumers.push_back(v);
                }
            }

            // Pass 2: sibling sharing.  Deeper consumers first: if a
            // shallower consumer reaches an acknowledged sibling token-free,
            // the sibling's ack closes its cycle too.
            std::sort(consumers.begin(), consumers.end(), [&](gate_id a, gate_id b) {
                return topo_pos[a] > topo_pos[b];
            });
            acked.clear();
            for (const gate_id v : consumers) {
                const bool covered =
                    std::any_of(acked.begin(), acked.end(),
                                [&](gate_id k) { return reach.reach0.test(v, k); });
                if (covered) {
                    ++result.stats.acks_saved_by_sharing;
                } else {
                    pl.add_ack_edge(v, u, !u_marked);
                    ++result.stats.acks_added;
                    acked.push_back(v);
                }
            }
        }
    } else {
        for (const std::uint64_t pair : fanout_pairs) {
            // A self-loop data edge is its own single-token cycle; an ack
            // would add a token-free self-cycle (not live) when marked.
            const gate_id u = producer(pair);
            const gate_id v = consumer(pair);
            if (u == v) continue;
            pl.add_ack_edge(v, u, !marked(u));
            ++result.stats.acks_added;
        }
    }

    // Full marked-graph verification; a pass is remembered on the netlist,
    // so neither the EE pass nor the simulator repeats it.
    const mg_report report = pl.verify();
    if (!report.ok()) {
        throw std::logic_error("map_to_phased_logic: marked graph invalid: " +
                               report.violation);
    }
    return result;
}

}  // namespace plee::pl
