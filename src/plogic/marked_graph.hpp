// marked_graph.hpp — marked graphs and the live/safe verification theory.
//
// "A PL netlist can be thought of as a marked graph with data tokens flowing
// throughout the graph. ... for correct operation of a PL system, the marked
// graph equivalent had to be both live and safe" (Section 2).
//
//  * well-formed: every edge lies on a directed cycle ("every signal must be
//    part of a directed circuit");
//  * live:        no directed cycle is token-free (firing can always
//    continue; a liveness problem means "no token circulation");
//  * safe:        no edge can ever hold more than one token.  For a live
//    marked graph, the maximum occupancy of an edge equals the minimum token
//    count over directed cycles through it (Commoner et al. 1971 / Murata),
//    so safety reduces to: every edge lies on a cycle carrying exactly one
//    token.
//
// verify_marked_graph runs the analysis over a flat edge list with CSR
// out-adjacency (mg_adjacency, each node's out-edges in edge order): Tarjan's
// strongly connected components decide well-formedness, a Kahn pass over the
// token-free edges (token_free_order) decides liveness, and bitset
// reachability over the token-free subgraph (token_reach) decides safety, in
// O(V·E/64) — practical even for the multi-thousand-gate CPU benchmarks.
// marked_graph::verify() and pl::pl_netlist::verify() both call it, and the
// PL mapper's feedback analysis runs token_free_order and token_reach on its
// data edges.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "plogic/bit_matrix.hpp"

namespace plee::pl {

using node_id = std::uint32_t;

struct mg_edge {
    node_id from = 0;
    node_id to = 0;
    int tokens = 0;
};

struct mg_report {
    bool well_formed = false;
    bool live = false;
    bool safe = false;
    /// Human-readable description of the first violation found, if any.
    std::string violation;

    bool ok() const { return well_formed && live && safe; }
};

/// CSR out-adjacency of a flat edge list: the out-edges of node v are
/// edge_ids[begin[v], begin[v + 1]), in edge order.  Edge endpoints must be
/// below num_nodes.
struct mg_adjacency {
    mg_adjacency(std::size_t num_nodes, const std::vector<mg_edge>& edges);

    std::size_t num_nodes() const { return begin.size() - 1; }

    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> edge_ids;
};

/// LIFO Kahn order over the token-free edges: nodes start ready in id order,
/// the most recently readied node is taken first, and a node releases its
/// successors in edge order.  Shorter than num_nodes exactly when a
/// token-free directed cycle exists.
std::vector<node_id> token_free_order(const std::vector<mg_edge>& edges,
                                      const mg_adjacency& out);

/// reach0(v, w): w is reachable from v over token-free edges.
/// reach_le1(v, w): w is reachable from v over edges carrying at most one
/// token in total.  Both are reflexive; edges with two or more tokens are
/// not followed.
struct mg_reach {
    bit_matrix reach0;
    bit_matrix reach_le1;
};

/// Both reachabilities by dynamic programming in reverse `order`, which
/// must be a complete token_free_order of the graph.
mg_reach token_reach(const std::vector<mg_edge>& edges, const mg_adjacency& out,
                     const std::vector<node_id>& order);

/// The full well-formed / live / safe analysis.  The violation text names
/// the first failing edge in edge order.
mg_report verify_marked_graph(std::size_t num_nodes,
                              const std::vector<mg_edge>& edges);

/// A directed graph with a token marking on edges.
class marked_graph {
public:
    explicit marked_graph(std::size_t num_nodes = 0);

    node_id add_node();
    /// Adds an edge carrying `tokens` initial tokens; returns its index.
    std::size_t add_edge(node_id from, node_id to, int tokens);

    std::size_t num_nodes() const { return num_nodes_; }
    std::size_t num_edges() const { return edges_.size(); }
    const std::vector<mg_edge>& edges() const { return edges_; }

    /// Total tokens in the marking (invariant under firing on each cycle).
    int total_tokens() const;

    /// Fires `node`: requires one token on every in-edge; moves one token
    /// from each in-edge to each out-edge.  Returns false (no change) when
    /// the node is not enabled.  Used by the abstract token-flow tests.
    bool fire(node_id node);

    /// True when every in-edge of `node` carries at least one token.
    bool enabled(node_id node) const;

    /// Runs the full well-formed / live / safe analysis.
    mg_report verify() const { return verify_marked_graph(num_nodes_, edges_); }

private:
    std::size_t num_nodes_;
    std::vector<mg_edge> edges_;
};

}  // namespace plee::pl
