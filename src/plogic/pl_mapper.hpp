// pl_mapper.hpp — direct mapping from synchronous netlists to Phased Logic.
//
// Implements the Linder/Harden direct-mapping rules the paper relies on
// ("direct mapping from synchronous digital circuitry to PL circuitry is
// possible"): LUT -> compute gate, DFF -> through gate with initially marked
// outputs, ports -> environment source/sink gates, and acknowledge feedback
// insertion so every signal joins a live and safe directed circuit.
//
// Feedback economy (Section 1: "multiple output signals can be covered by
// the same feedback signal, and some output signals need no feedback signal
// if they are already part of a loop") is implemented as two analyses over
// the token-free data subgraph:
//   1. natural-cycle elimination: a data edge already on a single-token
//      directed circuit of data edges (e.g. FSM state loops) needs no ack;
//   2. sibling sharing: among consumers of one producer, a consumer that
//      reaches an acknowledged sibling consumer token-free is covered by the
//      sibling's ack.
// Both read the reachability of the data edges from the PL netlist itself,
// while it holds only those: token_reach (marked_graph.hpp) over its CSR,
// with its token-free order (pl_netlist::token_free_order) ranking the
// siblings.  Which siblings get an ack does not depend on that ranking.  The
// distinct (producer, consumer) fanout pairs are one sorted vector, walked
// one producer run at a time, so acks are added in producer order.  The
// input netlist is copied only when a register cycle needs a slack buffer.
// The mapper verifies the final marked graph (live + safe + well-formed)
// and throws if the optimization ever produced an invalid network.  The
// pass is remembered on the netlist and survives the EE pass's
// attach_trigger calls, so this is the one marked-graph analysis of a
// pipeline row: the EE pass's closing check and both simulator compiles
// read it.

#pragma once

#include <cstddef>
#include <vector>

#include "netlist/netlist.hpp"
#include "plogic/pl_netlist.hpp"

namespace plee::pl {

struct map_options {
    /// Apply the feedback-sharing optimizations.  When false every data edge
    /// gets its own acknowledge edge (always correct, maximally conservative).
    bool share_feedbacks = true;
};

struct map_stats {
    std::size_t acks_added = 0;
    std::size_t acks_saved_by_natural_cycles = 0;
    std::size_t acks_saved_by_sharing = 0;
    /// Identity buffers inserted on register-only cycles (see
    /// insert_register_slack in the implementation): two adjacent initially
    /// full self-timed stages need an empty slot between them or their
    /// acknowledge edges form a token-free (dead) cycle.
    std::size_t slack_buffers = 0;
};

struct map_result {
    pl_netlist pl;
    /// Synchronous cell id -> PL gate id (k_invalid_gate for none).
    std::vector<gate_id> gate_of_cell;
    map_stats stats;
};

/// Maps a validated synchronous netlist to a Phased Logic netlist.
map_result map_to_phased_logic(const nl::netlist& nl, const map_options& options = {});

}  // namespace plee::pl
