// marked_graph.hpp — the live/safe verification theory, run over a PL netlist.
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
// The analyses read the netlist's own graph: its gates are the nodes, its
// edges (data and acknowledge alike) the arcs, and an edge's initial token
// its marking, so an edge carries at most one token.  verify_marked_graph
// runs Tarjan's strongly connected components over the CSR out-adjacency
// (pl_netlist::out_edges) to decide well-formedness, takes liveness from
// the completeness of the netlist's token-free order
// (pl_netlist::token_free_order), and decides safety by bitset reachability
// over the token-free subgraph (token_reach), in O(V·E/64) — practical even
// for the multi-thousand-gate CPU benchmarks.  pl_netlist::verify() runs it
// and remembers a pass, which attach_trigger keeps, so a pipeline row pays
// for one analysis, the mapper's closing check; the tests call it directly
// as the independent oracle.  The PL mapper's feedback analysis runs
// token_reach on its netlist while that holds only its data edges.

#pragma once

#include <string>

#include "plogic/bit_matrix.hpp"

namespace plee::pl {

class pl_netlist;

struct mg_report {
    bool well_formed = false;
    bool live = false;
    bool safe = false;
    /// Human-readable description of the first violation found, if any.
    std::string violation;

    bool ok() const { return well_formed && live && safe; }
};

/// reach0(v, w): w is reachable from v over token-free edges.
/// reach_le1(v, w): w is reachable from v over edges carrying at most one
/// token in total.  Both are reflexive.
struct mg_reach {
    bit_matrix reach0;
    bit_matrix reach_le1;
};

/// Both reachabilities by dynamic programming in reverse token-free order.
/// Throws std::logic_error when the netlist is not live (its token-free
/// order is incomplete).
mg_reach token_reach(const pl_netlist& pl);

/// The full well-formed / live / safe analysis.  The violation text names
/// the first failing edge in edge order.
mg_report verify_marked_graph(const pl_netlist& pl);

}  // namespace plee::pl
