#include "plogic/pl_mapper.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

#include "plogic/bit_matrix.hpp"

namespace plee::pl {

namespace {

/// Token-free-data-subgraph reachability used by the feedback optimizer.
struct data_reach {
    bit_matrix reach0;    ///< reachable crossing only token-free data edges
    bit_matrix reach_le1; ///< reachable crossing at most one marked data edge
    std::vector<int> topo_pos;  ///< position in token-free topological order
};

data_reach analyze_data_reach(const pl_netlist& pl) {
    const std::size_t n = pl.num_gates();
    data_reach r{bit_matrix(n, n), bit_matrix(n, n), std::vector<int>(n, 0)};

    // Kahn order over token-free data edges.  The synchronous source was
    // combinationally acyclic, so this subgraph is a DAG.
    std::vector<int> indeg(n, 0);
    for (const pl_edge& e : pl.edges()) {
        if (e.kind == edge_kind::data && !e.init_token) ++indeg[e.to];
    }
    std::vector<gate_id> queue;
    std::vector<gate_id> topo;
    topo.reserve(n);
    for (gate_id g = 0; g < n; ++g) {
        if (indeg[g] == 0) queue.push_back(g);
    }
    while (!queue.empty()) {
        const gate_id g = queue.back();
        queue.pop_back();
        r.topo_pos[g] = static_cast<int>(topo.size());
        topo.push_back(g);
        for (edge_id idx : pl.gate(g).out_edges) {
            const pl_edge& e = pl.edge(idx);
            if (e.kind == edge_kind::data && !e.init_token && --indeg[e.to] == 0) {
                queue.push_back(e.to);
            }
        }
    }
    if (topo.size() != n) {
        throw std::logic_error("map_to_phased_logic: cyclic token-free data subgraph");
    }

    // Reverse-topological DP, two passes: reach0 first (marked edges may
    // point anywhere in the order, so reach_le1 needs reach0 complete).
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const gate_id v = *it;
        r.reach0.set(v, v);
        for (edge_id idx : pl.gate(v).out_edges) {
            const pl_edge& e = pl.edge(idx);
            if (e.kind == edge_kind::data && !e.init_token) r.reach0.or_row(v, e.to);
        }
    }
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const gate_id v = *it;
        r.reach_le1.set(v, v);
        for (edge_id idx : pl.gate(v).out_edges) {
            const pl_edge& e = pl.edge(idx);
            if (e.kind != edge_kind::data) continue;
            if (!e.init_token) {
                r.reach_le1.or_row(v, e.to);
            } else {
                r.reach_le1.or_row_from(v, r.reach0, e.to);
            }
        }
    }
    return r;
}

/// Inserts identity-LUT slack buffers on register-to-register data edges
/// that lie on an all-register cycle.  Two adjacent "full" self-timed stages
/// cannot exchange tokens without an empty slot between them: the data edges
/// of such a cycle all carry initial tokens, so the corresponding acknowledge
/// edges are all empty and would form a token-free directed cycle (deadlock).
/// A buffer stage — functionally a wire — restores the needed slack.  Linear
/// register chains (shift registers) drain from the tail and need no buffers.
nl::netlist insert_register_slack(const nl::netlist& src, bool& changed) {
    // Strongly connected components of the DFF->DFF direct-connection graph.
    const std::vector<nl::cell_id>& dffs = src.dffs();
    std::map<nl::cell_id, std::size_t> dff_index;
    for (std::size_t i = 0; i < dffs.size(); ++i) dff_index.emplace(dffs[i], i);

    // Union-find over mutual reachability is overkill at this scale; a simple
    // DFS-based SCC (Tarjan) over at most |dffs| nodes suffices.
    const std::size_t n = dffs.size();
    std::vector<std::vector<std::size_t>> adj(n);
    for (std::size_t i = 0; i < n; ++i) {
        const nl::cell_id d = src.at(dffs[i]).fanins.front();
        if (auto it = dff_index.find(d); it != dff_index.end()) {
            adj[i].push_back(it->second);  // edge: this DFF's D comes from that DFF
        }
    }
    // Each node has out-degree <= 1 here (one D input), so SCCs are simple
    // cycles; find them by walking successor chains.
    std::vector<int> color(n, 0);  // 0 unvisited, 1 on-path, 2 done
    std::vector<char> on_cycle(n, 0);
    for (std::size_t start = 0; start < n; ++start) {
        if (color[start] != 0) continue;
        std::vector<std::size_t> path;
        std::size_t v = start;
        while (true) {
            if (color[v] == 1) {
                // Found a cycle: mark every node from v's first occurrence.
                bool in = false;
                for (std::size_t p : path) {
                    if (p == v) in = true;
                    if (in) on_cycle[p] = 1;
                }
                break;
            }
            if (color[v] == 2) break;
            color[v] = 1;
            path.push_back(v);
            if (adj[v].empty()) break;
            v = adj[v].front();
        }
        for (std::size_t p : path) color[p] = 2;
    }

    changed = false;
    for (std::size_t i = 0; i < n; ++i) changed = changed || on_cycle[i];
    if (!changed) return src;

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
    bool patched = false;
    const nl::netlist nl = insert_register_slack(input, patched);

    map_result result;
    result.stats.slack_buffers = nl.num_cells() - input.num_cells();
    pl_netlist& pl = result.pl;
    result.gate_of_cell.assign(nl.num_cells(), k_invalid_gate);

    // --- Gates ---------------------------------------------------------------
    for (nl::cell_id id = 0; id < nl.num_cells(); ++id) {
        const nl::cell& c = nl.at(id);
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
    auto edge_marking = [&](nl::cell_id producer) {
        const nl::cell& p = nl.at(producer);
        return std::pair<bool, bool>{p.kind == nl::cell_kind::dff, p.init_value};
    };
    for (nl::cell_id id = 0; id < nl.num_cells(); ++id) {
        const nl::cell& c = nl.at(id);
        const gate_id g = result.gate_of_cell[id];
        for (std::size_t pin = 0; pin < c.fanins.size(); ++pin) {
            const nl::cell_id producer = c.fanins[pin];
            const auto [token, value] = edge_marking(producer);
            pl.add_data_edge(result.gate_of_cell[producer], g, static_cast<int>(pin),
                             token, value);
        }
    }

    // --- Acknowledge feedback insertion -----------------------------------------
    // Collect the distinct (producer, consumer, marking) fanout pairs.
    std::map<std::pair<gate_id, gate_id>, bool> fanout_pairs;  // -> data marking
    for (const pl_edge& e : pl.edges()) {
        if (e.kind == edge_kind::data) {
            fanout_pairs.emplace(std::make_pair(e.from, e.to), e.init_token);
        }
    }

    if (options.share_feedbacks) {
        const data_reach reach = analyze_data_reach(pl);

        // Pass 1: natural-cycle elimination.
        // Group the surviving pairs by producer for the sharing pass.
        std::map<gate_id, std::vector<std::pair<gate_id, bool>>> by_producer;
        for (const auto& [pair, marked] : fanout_pairs) {
            const auto [u, v] = pair;
            const bool covered = marked ? reach.reach0.test(v, u)
                                        : reach.reach_le1.test(v, u);
            if (covered) {
                ++result.stats.acks_saved_by_natural_cycles;
            } else {
                by_producer[u].emplace_back(v, marked);
            }
        }

        // Pass 2: sibling sharing.  Deeper consumers first: if a shallower
        // consumer reaches an acknowledged sibling token-free, the sibling's
        // ack closes its cycle too.
        for (auto& [u, consumers] : by_producer) {
            std::sort(consumers.begin(), consumers.end(),
                      [&](const auto& a, const auto& b) {
                          return reach.topo_pos[a.first] > reach.topo_pos[b.first];
                      });
            std::vector<gate_id> acked;
            for (const auto& [v, marked] : consumers) {
                const bool covered =
                    std::any_of(acked.begin(), acked.end(), [&](gate_id k) {
                        return v != k && reach.reach0.test(v, k);
                    });
                if (covered) {
                    ++result.stats.acks_saved_by_sharing;
                } else {
                    pl.add_ack_edge(v, u, !marked);
                    ++result.stats.acks_added;
                    acked.push_back(v);
                }
            }
        }
    } else {
        for (const auto& [pair, marked] : fanout_pairs) {
            // A self-loop data edge is its own single-token cycle; an ack
            // would add a token-free self-cycle (not live) when marked.
            if (pair.first == pair.second) continue;
            pl.add_ack_edge(pair.second, pair.first, !marked);
            ++result.stats.acks_added;
        }
    }

    // Full marked-graph verification; a pass is remembered on the netlist,
    // so the simulator does not repeat it.
    const mg_report report = pl.verify();
    if (!report.ok()) {
        throw std::logic_error("map_to_phased_logic: marked graph invalid: " +
                               report.violation);
    }
    return result;
}

}  // namespace plee::pl
