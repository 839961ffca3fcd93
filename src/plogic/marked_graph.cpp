#include "plogic/marked_graph.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "plogic/pl_netlist.hpp"

namespace plee::pl {

mg_reach token_reach(const pl_netlist& pl) {
    const std::size_t n = pl.num_gates();
    const std::span<const gate_id> order = pl.token_free_order();
    if (order.size() != n) {
        throw std::logic_error("token_reach: token-free directed cycle");
    }
    mg_reach r{bit_matrix(n, n), bit_matrix(n, n)};
    // Pass 1: reach0 in reverse token-free order (successors along
    // token-free edges come first).
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const gate_id v = *it;
        r.reach0.set(v, v);
        for (const edge_id i : pl.out_edges(v)) {
            const pl_edge& e = pl.edge(i);
            if (!e.init_token) r.reach0.or_row(v, e.to);
        }
    }
    // Pass 2: reach_le1, with reach0 complete (a marked edge may jump
    // anywhere in the order, so this cannot be fused with pass 1).
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const gate_id v = *it;
        r.reach_le1.set(v, v);
        for (const edge_id i : pl.out_edges(v)) {
            const pl_edge& e = pl.edge(i);
            if (e.init_token) {
                r.reach_le1.or_row_from(v, r.reach0, e.to);
            } else {
                r.reach_le1.or_row(v, e.to);
            }
        }
    }
    return r;
}

namespace {

/// Strongly connected component id per gate (iterative Tarjan).
std::vector<int> strong_components(const pl_netlist& pl) {
    const std::size_t n = pl.num_gates();
    std::vector<int> index(n, -1), lowlink(n, 0), scc(n, -1);
    std::vector<char> on_stack(n, 0);
    std::vector<gate_id> stack;
    int next_index = 0, next_scc = 0;

    struct frame {
        gate_id v;
        std::span<const edge_id> out;
        std::size_t next;  ///< position in out
    };
    std::vector<frame> call;
    for (gate_id root = 0; root < n; ++root) {
        if (index[root] != -1) continue;
        call.push_back({root, pl.out_edges(root), 0});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = 1;
        while (!call.empty()) {
            frame& f = call.back();
            if (f.next < f.out.size()) {
                const gate_id w = pl.edge(f.out[f.next++]).to;
                if (index[w] == -1) {
                    index[w] = lowlink[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = 1;
                    call.push_back({w, pl.out_edges(w), 0});
                } else if (on_stack[w]) {
                    lowlink[f.v] = std::min(lowlink[f.v], index[w]);
                }
            } else {
                const gate_id v = f.v;
                call.pop_back();
                if (!call.empty()) {
                    lowlink[call.back().v] = std::min(lowlink[call.back().v], lowlink[v]);
                }
                if (lowlink[v] == index[v]) {
                    while (true) {
                        const gate_id w = stack.back();
                        stack.pop_back();
                        on_stack[w] = 0;
                        scc[w] = next_scc;
                        if (w == v) break;
                    }
                    ++next_scc;
                }
            }
        }
    }
    return scc;
}

}  // namespace

mg_report verify_marked_graph(const pl_netlist& pl) {
    mg_report report;

    // ---- Well-formedness: every edge inside one strongly connected
    // component.
    const std::vector<int> scc = strong_components(pl);
    report.well_formed = true;
    for (edge_id i = 0; i < pl.num_edges(); ++i) {
        const pl_edge& e = pl.edge(i);
        if (scc[e.from] != scc[e.to]) {
            report.well_formed = false;
            report.violation = "edge " + std::to_string(i) + " (" +
                               std::to_string(e.from) + "->" + std::to_string(e.to) +
                               ") lies on no directed cycle";
            break;
        }
    }

    // ---- Liveness: the token-free subgraph must be acyclic.
    report.live = pl.token_free_order().size() == pl.num_gates();
    if (!report.live && report.violation.empty()) {
        report.violation = "token-free directed cycle (no token circulation possible)";
    }

    // ---- Safety requires liveness for the occupancy theorem to apply.
    if (!report.live || !report.well_formed) {
        report.safe = false;
        return report;
    }
    const mg_reach reach = token_reach(pl);
    report.safe = true;
    for (edge_id i = 0; i < pl.num_edges(); ++i) {
        const pl_edge& e = pl.edge(i);
        // A marked edge needs a token-free return path: the cycle then
        // carries exactly this edge's token.  An unmarked one needs a
        // return path crossing exactly one marked edge.
        const bool edge_safe = e.init_token ? reach.reach0.test(e.to, e.from)
                                            : reach.reach_le1.test(e.to, e.from);
        if (!edge_safe) {
            report.safe = false;
            report.violation = "edge " + std::to_string(i) + " (" +
                               std::to_string(e.from) + "->" + std::to_string(e.to) +
                               ", m=" + std::to_string(e.init_token ? 1 : 0) +
                               ") is on no single-token cycle";
            break;
        }
    }
    return report;
}

}  // namespace plee::pl
