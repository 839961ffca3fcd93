// pl_netlist.hpp — Phased Logic netlists.
//
// A PL netlist is the self-timed image of a synchronous LUT4+DFF netlist:
//  * every LUT becomes a *compute* gate (fires when a token is present on
//    every input: completion detection by the Muller-C element of Figure 1);
//  * every DFF becomes a *through* gate whose output edges carry an initial
//    token holding the register's reset value;
//  * primary inputs/outputs become environment *source*/*sink* gates;
//  * acknowledge feedback edges close every signal into a directed circuit,
//    creating the unit-depth token queues of Section 2.1.
//
// Early Evaluation (Section 3) adds *trigger* gates: a trigger taps a subset
// of its master's input signals, computes the trigger function, and sends an
// "efire" token to the master.  A 1-valued efire token lets the master emit
// its output before the remaining inputs arrive; handshaking still consumes
// every input token, so the marked-graph marking invariants are preserved.
//
// ## Layout
//
// The netlist is flat.  A gate is one plain record (pl_gate): its kind,
// function, constant, EE pairing fields, up to bf::k_max_vars data-pin edge
// ids and the offset of its name in one character pool (name()).  Edges
// live in one array in id order.  in_edges(g) and out_edges(g) are spans
// over a CSR (compressed sparse row) adjacency built from that array, so
// each list is in edge-id order, the order the edges were added.
//
// The same build makes the netlist's one token-free order
// (token_free_order()): a FIFO Kahn order over the edges that carry no
// initial token.  Gates with no token-free in-edge come first, in id order,
// and each gate releases its successors in out-edge order.  It is complete,
// one position per gate, exactly when the netlist is live.  The verifier,
// the mapper, arrival_depth and the simulator's schedule all read it.
//
// The CSR and the order are built lazily: the first in_edges, out_edges or
// token_free_order query after a mutation builds them, in O(V+E), and they
// serve every query until the next mutation.  The build takes a lock and
// publishes with an atomic flag, so concurrent const readers of one netlist
// do not race, as with the verify memo; mutators need exclusive access, as
// for any container.  attach_trigger reads its master's pins from the gate
// record, so the EE pass, which attaches one trigger per accepted master,
// leaves the CSR to be rebuilt once, by the first query after the pass (the
// simulator's compile), not once per trigger.  Spans from in_edges,
// out_edges, data_in and token_free_order, and the view from name(), are
// valid until the next mutation.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "bool/truth_table.hpp"
#include "netlist/netlist.hpp"
#include "plogic/marked_graph.hpp"

namespace plee::pl {

using gate_id = std::uint32_t;
using edge_id = std::uint32_t;
inline constexpr gate_id k_invalid_gate = 0xffffffffu;
inline constexpr edge_id k_invalid_edge = 0xffffffffu;

enum class gate_kind : std::uint8_t {
    source,        ///< environment driver of a primary input (new token per wave)
    const_source,  ///< re-emits a constant-valued token every wave
    sink,          ///< environment consumer of a primary output
    compute,       ///< LUT4 gate (the paper's PL gate)
    through,       ///< register gate: identity function, initially marked outputs
    trigger,       ///< Early Evaluation trigger gate
};

const char* to_string(gate_kind kind);

enum class edge_kind : std::uint8_t {
    data,  ///< carries valued tokens producer -> consumer
    ack,   ///< acknowledge feedback consumer -> producer (pure control)
};

struct pl_edge {
    gate_id from = k_invalid_gate;
    gate_id to = k_invalid_gate;
    edge_kind kind = edge_kind::data;
    /// LUT pin index at the consumer for data edges into compute/trigger
    /// gates; -1 otherwise.
    int to_pin = -1;
    bool init_token = false;  ///< marking: one initial token present
    bool init_value = false;  ///< value of the initial token (data edges)
};

/// One gate: plain data, trivially copyable.  Adjacency lives in the
/// netlist (in_edges, out_edges); the data pins and the name are read
/// through it too (data_in, name).
struct pl_gate {
    gate_kind kind = gate_kind::compute;
    bool const_value = false;     ///< const_source only
    std::uint8_t num_data = 0;    ///< data pins wired so far
    bf::truth_table function{0};  ///< compute/trigger; arity == data pin count
    /// Pin-ordered data inputs (LUT operands): data_pins[0, num_data).
    std::array<edge_id, bf::k_max_vars> data_pins{};

    // Early Evaluation pairing.
    gate_id trigger = k_invalid_gate;   ///< master gate: its trigger, if any
    gate_id master = k_invalid_gate;    ///< trigger gate: its master
    edge_id efire_in = k_invalid_edge;  ///< master gate: edge carrying efire
    std::uint32_t trigger_support = 0;  ///< trigger gate: pin mask of master inputs

    std::uint32_t name_off = 0;  ///< the name: names pool [name_off, +name_len)
    std::uint32_t name_len = 0;
};
static_assert(std::is_trivially_copyable_v<pl_gate>);

class pl_netlist {
public:
    // --- Construction ------------------------------------------------------
    gate_id add_gate(gate_kind kind, std::string_view name = "");
    void set_function(gate_id g, const bf::truth_table& fn);
    void set_const_value(gate_id g, bool value);
    /// Adds a data edge; for compute/trigger consumers, `to_pin` must be the
    /// LUT operand position and arrive in ascending pin order, at most
    /// bf::k_max_vars pins per gate.  to_pin < 0 adds a data edge that is
    /// no LUT operand (the efire edge).
    edge_id add_data_edge(gate_id from, gate_id to, int to_pin, bool init_token,
                          bool init_value);
    edge_id add_ack_edge(gate_id from, gate_id to, bool init_token);

    /// Wires a trigger gate t for `master` M computing `fn` over the master
    /// pins selected by `support_mask`.  For each support pin P_i -> M it
    /// adds a tap P_i -> t with the pin's marking and an acknowledge
    /// t -> P_i with the opposite one; then the efire edge t -> M, unmarked,
    /// and its acknowledge M -> t, marked.  Returns the trigger id.  The
    /// support must be a non-empty proper subset of the master's pins, and
    /// `fn`'s arity its size (std::invalid_argument otherwise).
    ///
    /// It is the one mutator that keeps a passed verify(): on a
    /// well-formed, live and safe netlist the gadget keeps all three.
    ///  * Well-formed, and safe once live.  Each tap and its acknowledge
    ///    form a 2-cycle carrying one token, and so do the efire edge and
    ///    its acknowledge.  Old edges keep their old cycles.
    ///  * Still live.  Suppose t lies on a token-free cycle; take it simple,
    ///    so apart from its two edges at t it uses old edges only.  It
    ///    enters t by an unmarked tap from some P_i, so the pin P_i -> M is
    ///    unmarked.  It leaves t either by the efire edge t -> M or by the
    ///    unmarked acknowledge t -> P_j of a marked pin P_j -> M.
    ///     - Leaving by efire needs a token-free path M ~> P_i.  With
    ///       P_i -> M, that path closes a token-free cycle in the old
    ///       netlist.
    ///     - Leaving by the acknowledge needs a token-free path P_j ~> P_i.
    ///       The old netlist's safety puts the marked pin P_j -> M on a
    ///       one-token cycle, so it has a token-free return path M ~> P_j.
    ///       So P_i -> M ~> P_j ~> P_i already closed a token-free cycle.
    ///    Both cases contradict the old netlist's liveness.  By induction,
    ///    the many attaches of one EE pass keep all three too.
    gate_id attach_trigger(gate_id master, const bf::truth_table& fn,
                           std::uint32_t support_mask);

    // --- Access -------------------------------------------------------------
    std::size_t num_gates() const { return gates_.size(); }
    std::size_t num_edges() const { return edges_.size(); }
    const pl_gate& gate(gate_id g) const { return gates_[g]; }
    const pl_edge& edge(edge_id e) const { return edges_[e]; }
    const std::vector<pl_gate>& gates() const { return gates_; }
    const std::vector<pl_edge>& edges() const { return edges_; }

    /// Gate g's incoming edges (data, ack and efire) and outgoing edges, in
    /// edge-id order; the first query after a mutation builds the CSR.
    std::span<const edge_id> in_edges(gate_id g) const {
        const adjacency& a = adjacency_view();
        return {a.in_ids.data() + a.in_begin[g], a.in_ids.data() + a.in_begin[g + 1]};
    }
    std::span<const edge_id> out_edges(gate_id g) const {
        const adjacency& a = adjacency_view();
        return {a.out_ids.data() + a.out_begin[g],
                a.out_ids.data() + a.out_begin[g + 1]};
    }
    /// The FIFO Kahn order over the edges without an initial token (see
    /// Layout), built with the CSR.  Its size is num_gates() exactly when
    /// the netlist is live.
    std::span<const gate_id> token_free_order() const { return adjacency_view().order; }
    /// Gate g's pin-ordered data inputs (LUT operands), from its record.
    std::span<const edge_id> data_in(gate_id g) const {
        return {gates_[g].data_pins.data(), gates_[g].num_data};
    }
    std::string_view name(gate_id g) const {
        return std::string_view(names_).substr(gates_[g].name_off, gates_[g].name_len);
    }

    const std::vector<gate_id>& sources() const { return sources_; }
    const std::vector<gate_id>& sinks() const { return sinks_; }

    /// The paper's "PL Gates" area unit: compute + through gates.
    std::size_t num_pl_gates() const;
    /// The paper's "EE Gates" column: trigger gates added by the EE pass.
    std::size_t num_trigger_gates() const;
    std::size_t num_ack_edges() const;

    // --- Analysis -----------------------------------------------------------
    /// Well-formed / live / safe verification, tokens = initial markings.
    /// A passed result is remembered and returned at once; otherwise this
    /// runs verify_marked_graph over the netlist's CSR and token-free order
    /// and remembers a pass.  attach_trigger keeps the memo (its comment
    /// has the proof), every other mutator clears it.  So the mapper's one
    /// analysis also serves the EE pass's closing check and every
    /// simulator compile.  A caller that wants the analysis itself, as an
    /// independent oracle, calls verify_marked_graph.
    mg_report verify() const;
    /// True when a passed verify() is remembered (the test hook of the memo).
    bool verified() const { return verified_.passed.load(); }

    /// Arrival depth of each gate's output signal: "the maximum path length
    /// in terms of PL gates from the primary circuit inputs" (Section 3).
    /// Sources, constant sources and through gates provide tokens at wave
    /// start (depth 0); a compute/trigger gate adds one gate of depth.  One
    /// walk of the token-free order; throws std::logic_error when the
    /// netlist is not live.
    std::vector<int> arrival_depth() const;

    std::string to_dot(const std::string& graph_name = "pl") const;

private:
    /// The memo of verify(): one atomic flag, so concurrent checks on one
    /// const netlist do not race; a copy carries its value.
    struct verify_memo {
        std::atomic<bool> passed{false};
        verify_memo() = default;
        verify_memo(const verify_memo& other) : passed(other.passed.load()) {}
        verify_memo& operator=(const verify_memo& other) {
            passed.store(other.passed.load());
            return *this;
        }
        /// Called by every mutator: a locked store only when set, so
        /// building a netlist edge by edge pays one plain load per call.
        void clear() {
            if (passed.load()) passed.store(false);
        }
    };

    /// The CSR over edges_: gate g's in-edges are in_ids[in_begin[g],
    /// in_begin[g + 1]), its out-edges likewise; order is the token-free
    /// order.  built is cleared by every mutator and set, under mu, by the
    /// first reader after it.  A copied or moved-to netlist starts unbuilt,
    /// so a copy never reads another netlist's CSR while a reader of that
    /// netlist builds it.
    struct adjacency {
        std::vector<std::uint32_t> in_begin, out_begin;
        std::vector<edge_id> in_ids, out_ids;
        std::vector<gate_id> order;
        std::atomic<bool> built{false};
        std::mutex mu;
        adjacency() = default;
        adjacency(const adjacency&) {}
        adjacency& operator=(const adjacency&) {
            built.store(false, std::memory_order_relaxed);
            return *this;
        }
    };
    /// The CSR, built first when a mutation cleared it.
    const adjacency& adjacency_view() const {
        if (!adjacency_.built.load(std::memory_order_acquire)) build_adjacency();
        return adjacency_;
    }
    void build_adjacency() const;
    /// Every mutator's bookkeeping: the CSR and the verify memo go stale.
    void mutated() {
        adjacency_.built.store(false, std::memory_order_relaxed);
        verified_.clear();
    }

    std::vector<pl_gate> gates_;
    std::vector<pl_edge> edges_;
    std::string names_;
    std::vector<gate_id> sources_;
    std::vector<gate_id> sinks_;
    mutable adjacency adjacency_;
    mutable verify_memo verified_;
};

}  // namespace plee::pl
