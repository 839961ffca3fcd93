// pl_flat.hpp — CSR (compressed sparse row) flattening of a pl_netlist.
//
// The simulation hot path visits a gate's in_edges / data_in / out_edges on
// every firing.  In pl_netlist those live as one std::vector per gate, so a
// firing chases three heap-allocated vector headers scattered with the rest
// of the (string-carrying) pl_gate records.  flat_topology rebuilds the same
// adjacency once per netlist as offset + flat-id arrays: one contiguous
// edge-id pool per relation, indexed by [off[g], off[g+1]), plus per-edge
// consumer/kind arrays so `place` never touches pl_edge records either.
//
// The flattening is purely structural (no per-run state) and is shared by
// both engines of sim::pl_simulator; it is equally usable by any other pass
// that walks PL adjacency at scale.

#pragma once

#include <cstdint>
#include <vector>

#include "plogic/pl_netlist.hpp"

namespace plee::pl {

struct flat_topology {
    flat_topology() = default;
    explicit flat_topology(const pl_netlist& pl);

    // --- Per-edge arrays, indexed by edge_id -------------------------------
    std::vector<gate_id> edge_to;         ///< consumer gate of each edge
    std::vector<std::uint8_t> edge_is_ack;  ///< 1 iff edge_kind::ack

    // --- CSR adjacency, indexed by gate_id ---------------------------------
    // Gate g's incoming edges are in_flat[in_off[g] .. in_off[g+1]).
    std::vector<std::uint32_t> in_off;
    std::vector<edge_id> in_flat;
    // Pin-ordered LUT operand edges: data_flat[data_off[g] .. data_off[g+1]).
    std::vector<std::uint32_t> data_off;
    std::vector<edge_id> data_flat;
    // Outgoing edges: out_flat[out_off[g] .. out_off[g+1]).
    std::vector<std::uint32_t> out_off;
    std::vector<edge_id> out_flat;

    std::size_t num_data_edges = 0;  ///< edges with edge_kind::data
};

}  // namespace plee::pl
