#include "plogic/marked_graph.hpp"

#include <algorithm>
#include <stdexcept>

namespace plee::pl {

mg_adjacency::mg_adjacency(std::size_t num_nodes, const std::vector<mg_edge>& edges)
    : begin(num_nodes + 1, 0), edge_ids(edges.size()) {
    for (const mg_edge& e : edges) ++begin[e.from + 1];
    for (std::size_t v = 0; v < num_nodes; ++v) begin[v + 1] += begin[v];
    std::vector<std::uint32_t> next(begin.begin(), begin.end() - 1);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        edge_ids[next[edges[i].from]++] = static_cast<std::uint32_t>(i);
    }
}

std::vector<node_id> token_free_order(const std::vector<mg_edge>& edges,
                                      const mg_adjacency& out) {
    const std::size_t n = out.num_nodes();
    std::vector<std::uint32_t> indeg(n, 0);
    for (const mg_edge& e : edges) {
        if (e.tokens == 0) ++indeg[e.to];
    }
    std::vector<node_id> ready;
    for (node_id v = 0; v < n; ++v) {
        if (indeg[v] == 0) ready.push_back(v);
    }
    std::vector<node_id> order;
    order.reserve(n);
    while (!ready.empty()) {
        const node_id v = ready.back();
        ready.pop_back();
        order.push_back(v);
        for (std::uint32_t k = out.begin[v]; k < out.begin[v + 1]; ++k) {
            const mg_edge& e = edges[out.edge_ids[k]];
            if (e.tokens == 0 && --indeg[e.to] == 0) ready.push_back(e.to);
        }
    }
    return order;
}

mg_reach token_reach(const std::vector<mg_edge>& edges, const mg_adjacency& out,
                     const std::vector<node_id>& order) {
    const std::size_t n = out.num_nodes();
    mg_reach r{bit_matrix(n, n), bit_matrix(n, n)};
    // Pass 1: reach0 in reverse token-free order (successors along
    // token-free edges come first).
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const node_id v = *it;
        r.reach0.set(v, v);
        for (std::uint32_t k = out.begin[v]; k < out.begin[v + 1]; ++k) {
            const mg_edge& e = edges[out.edge_ids[k]];
            if (e.tokens == 0) r.reach0.or_row(v, e.to);
        }
    }
    // Pass 2: reach_le1, with reach0 complete (a marked edge may jump
    // anywhere in the order, so this cannot be fused with pass 1).
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        const node_id v = *it;
        r.reach_le1.set(v, v);
        for (std::uint32_t k = out.begin[v]; k < out.begin[v + 1]; ++k) {
            const mg_edge& e = edges[out.edge_ids[k]];
            if (e.tokens == 0) {
                r.reach_le1.or_row(v, e.to);
            } else if (e.tokens == 1) {
                r.reach_le1.or_row_from(v, r.reach0, e.to);
            }
        }
    }
    return r;
}

namespace {

/// Strongly connected component id per node (iterative Tarjan).
std::vector<int> strong_components(const std::vector<mg_edge>& edges,
                                   const mg_adjacency& out) {
    const std::size_t n = out.num_nodes();
    std::vector<int> index(n, -1), lowlink(n, 0), scc(n, -1);
    std::vector<char> on_stack(n, 0);
    std::vector<node_id> stack;
    int next_index = 0, next_scc = 0;

    struct frame {
        node_id v;
        std::uint32_t next;  ///< position in out.edge_ids
    };
    std::vector<frame> call;
    for (node_id root = 0; root < n; ++root) {
        if (index[root] != -1) continue;
        call.push_back({root, out.begin[root]});
        index[root] = lowlink[root] = next_index++;
        stack.push_back(root);
        on_stack[root] = 1;
        while (!call.empty()) {
            frame& f = call.back();
            if (f.next < out.begin[f.v + 1]) {
                const node_id w = edges[out.edge_ids[f.next++]].to;
                if (index[w] == -1) {
                    index[w] = lowlink[w] = next_index++;
                    stack.push_back(w);
                    on_stack[w] = 1;
                    call.push_back({w, out.begin[w]});
                } else if (on_stack[w]) {
                    lowlink[f.v] = std::min(lowlink[f.v], index[w]);
                }
            } else {
                const node_id v = f.v;
                call.pop_back();
                if (!call.empty()) {
                    lowlink[call.back().v] = std::min(lowlink[call.back().v], lowlink[v]);
                }
                if (lowlink[v] == index[v]) {
                    while (true) {
                        const node_id w = stack.back();
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

mg_report verify_marked_graph(std::size_t num_nodes,
                              const std::vector<mg_edge>& edges) {
    mg_report report;
    const mg_adjacency out(num_nodes, edges);

    // ---- Well-formedness: every edge inside one strongly connected
    // component.
    const std::vector<int> scc = strong_components(edges, out);
    report.well_formed = true;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const mg_edge& e = edges[i];
        if (scc[e.from] != scc[e.to]) {
            report.well_formed = false;
            report.violation = "edge " + std::to_string(i) + " (" +
                               std::to_string(e.from) + "->" + std::to_string(e.to) +
                               ") lies on no directed cycle";
            break;
        }
    }

    // ---- Liveness: the token-free subgraph must be acyclic.
    const std::vector<node_id> order = token_free_order(edges, out);
    report.live = order.size() == num_nodes;
    if (!report.live && report.violation.empty()) {
        report.violation = "token-free directed cycle (no token circulation possible)";
    }

    // ---- Safety requires liveness for the occupancy theorem to apply.
    if (!report.live || !report.well_formed) {
        report.safe = false;
        return report;
    }
    const mg_reach reach = token_reach(edges, out, order);
    report.safe = true;
    for (std::size_t i = 0; i < edges.size(); ++i) {
        const mg_edge& e = edges[i];
        bool edge_safe;
        if (e.tokens >= 2) {
            edge_safe = false;
        } else if (e.tokens == 1) {
            // Needs a token-free return path: the cycle then carries exactly
            // this edge's token.
            edge_safe = reach.reach0.test(e.to, e.from);
        } else {
            // Needs a return path crossing exactly one marked edge.
            edge_safe = reach.reach_le1.test(e.to, e.from);
        }
        if (!edge_safe) {
            report.safe = false;
            report.violation = "edge " + std::to_string(i) + " (" +
                               std::to_string(e.from) + "->" + std::to_string(e.to) +
                               ", m=" + std::to_string(e.tokens) +
                               ") is on no single-token cycle";
            break;
        }
    }
    return report;
}

// ---------------------------------------------------------------------------
// marked_graph: the abstract token-flow model.
// ---------------------------------------------------------------------------

marked_graph::marked_graph(std::size_t num_nodes) : num_nodes_(num_nodes) {}

node_id marked_graph::add_node() { return static_cast<node_id>(num_nodes_++); }

std::size_t marked_graph::add_edge(node_id from, node_id to, int tokens) {
    if (from >= num_nodes_ || to >= num_nodes_) {
        throw std::invalid_argument("marked_graph::add_edge: node out of range");
    }
    if (tokens < 0) {
        throw std::invalid_argument("marked_graph::add_edge: negative marking");
    }
    edges_.push_back({from, to, tokens});
    return edges_.size() - 1;
}

int marked_graph::total_tokens() const {
    int total = 0;
    for (const mg_edge& e : edges_) total += e.tokens;
    return total;
}

bool marked_graph::enabled(node_id node) const {
    return std::none_of(edges_.begin(), edges_.end(), [&](const mg_edge& e) {
        return e.to == node && e.tokens < 1;
    });
}

bool marked_graph::fire(node_id node) {
    if (!enabled(node)) return false;
    for (mg_edge& e : edges_) {
        if (e.to == node) --e.tokens;
        if (e.from == node) ++e.tokens;
    }
    return true;
}

}  // namespace plee::pl
