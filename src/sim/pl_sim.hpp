// pl_sim.hpp — token-level simulator for Phased Logic netlists.
//
// Simulates the marked-graph semantics of a PL circuit with valued tokens and
// the delay model of delay_model.hpp.  A gate fires the moment a token is
// present on every input edge (the Muller-C completion rule); firing consumes
// one token per input edge and deposits tokens on every output edge at
// analytically computed times.  Early Evaluation masters fire their *output*
// early when the efire token carries 1, while handshaking (acknowledges,
// token consumption) still waits for full completion — exactly the decoupling
// of Figure 2.
//
// The measurement protocol matches Section 4: "we determined the average
// delay time between the presence of a stable input vector and a stable
// output word. In a PL circuit, new values cannot be presented to the inputs
// until a stable output is generated for the current input values."  In the
// default non-pipelined mode the environment releases input vector k+1 when
// all primary outputs of vector k have arrived.  A pipelined mode (tokens
// streamed as fast as the acknowledges allow) is provided as an extension.
//
// The simulator doubles as a dynamic checker of the marked-graph theory: a
// token deposited onto an occupied edge (safety violation) or a deadlock
// before the run completes (liveness violation) raises an error.
//
// ## One engine per protocol
//
// A PL circuit is a live, safe marked graph in which every gate fires once
// per wave (Section 2).  Under the Figure 1/2 delay model every token time
// is a max/min recurrence over the times of the tokens its firing consumed,
// and the wave-horizon cap (src/sim/README.md) makes the set of firings the
// same in any enabling order, so the times are too: no event order can
// change a result, and neither engine keeps an event list.  Static timing
// analysis computes arrival times by max-plus propagation for the same
// reason.  Both engines fire a gate the moment its last input arrives: the
// firing writes each output token directly (present bit, value, and t_out
// or t_ack as its time), and a consumer whose pending-input count reaches 0
// goes onto a LIFO gate worklist.  Token state is structure-of-arrays
// (presence and value bitsets, a flat time array), adjacency comes from the
// CSR arrays of pl::flat_topology, and per-gate firing metadata (kind, pin
// counts, CSR offsets, LUT bits, trigger pin-packing map) is precomputed
// into one cache-line-aligned descriptor array.
//
//  * run / run_packed — the sequential-wave protocol (the dataflow engine).
//  * run_lanes — the lane engine: 64 independent single-vector runs in one
//    pass (below).
//
// Contracts (tests/test_sim_queue.cpp checks the dataflow engine against a
// time-ordered binary-heap oracle, tests/heap_oracle.hpp, over the ITC99
// suite, every workload preset and stress delay models;
// tests/test_lane_sim.cpp checks lane L of run_lanes against a serial run):
//
//  * Event count.  stats().events counts token deposits.  Every engine runs
//    the periodic checks (cancel poll, sim.fire fault point, sim.progress
//    beat) every k_cancel_check_events deposits.
//  * Trace order.  trace() is stable-sorted by (time, edge) at the end of
//    run_packed; one edge's deposits stay in wave order.
//  * Unsafe netlists.  Deposits are immediate, so the engines check the
//    untimed marking: on a netlist pl_netlist::verify() rejects, they report
//    every over-deposit the firing rule allows, even where a time-ordered
//    simulation would hide it.  A source with no acknowledge input, run
//    pipelined over 2 vectors, throws invariant_violation.  Mapper output
//    is safe by construction, so measured results are unaffected.
//
// ## Lane-parallel mode (run_lanes)
//
// run_lanes packs 64 independent single-vector simulations into one engine
// pass: every data token carries a 64-bit value word (bit L = lane L's
// value), and LUT and trigger evaluation run through the mux-tree word
// kernel bf::truth_table::eval_word_lanes.  Token *values* are
// timing-independent in a marked graph, so the value words are correct for
// all 64 lanes unconditionally; only the *times* can diverge, and the
// single place they can is an EE master whose efire word is mixed across
// lanes with the early path actually faster.  Such a firing never splits
// the pass: the divergent cone carries one time per lane (a 64-double slab
// entry per edge) while everything upstream and reconverged keeps a shared
// scalar time.  Each lane's result is bit-identical to a serial
// run({vector}) of that lane (asserted by tests/test_lane_sim.cpp over
// every workload preset and ITC99 b01-b10).  See src/sim/README.md.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "bool/truth_table.hpp"

#include "obs/flight_recorder.hpp"
#include "plogic/pl_flat.hpp"
#include "plogic/pl_netlist.hpp"
#include "rt/cancel.hpp"
#include "sim/delay_model.hpp"
#include "sim/stimulus.hpp"

namespace plee::sim {

struct sim_options {
    delay_model delays{};
    /// Environment mode: true = vector-at-a-time (the paper's measurement),
    /// false = streaming tokens limited only by the handshakes.
    bool non_pipelined = true;
    /// Record every data-token arrival for waveform (VCD) export.
    bool collect_trace = false;
    /// Hard limit on processed events (runaway guard).  Tripping it raises
    /// sim::budget_exhausted (see sim/errors.hpp).
    std::uint64_t max_events = 100'000'000;
    /// Circuit/job label embedded in every typed simulator failure, so fleet
    /// logs can attribute a throw to its job ("b05", "datapath-like/3#2").
    std::string label;
    /// Cooperative cancellation: both engines poll the token once per
    /// k_cancel_check_events processed events and raise plee::job_timeout
    /// (with a partial event-count snapshot) when it has expired.  Not
    /// owned; null = never cancelled.
    cancel_token* cancel = nullptr;
    /// Flight recorder for progress beats: both engines record a
    /// "sim.progress" event (events, waves-stable) at the same
    /// k_cancel_check_events cadence as the cancel poll, so a post-mortem of
    /// a dead job shows how far the simulation got.  Not owned; null = off.
    obs::flight_recorder* recorder = nullptr;
};

/// One recorded token arrival (collect_trace mode).
struct trace_event {
    double time = 0.0;
    pl::edge_id edge = pl::k_invalid_edge;
    bool value = false;
};

struct wave_record {
    std::vector<bool> outputs;   ///< primary output values, sink order
    double release_time = 0.0;   ///< when the environment could present inputs
                                 ///< (= previous wave's output_stable)
    double input_stable = 0.0;   ///< last input token deposit for this wave
    double output_stable = 0.0;  ///< last primary output token arrival

    /// The paper's per-vector delay: "the presence of a stable input vector"
    /// (the environment may drive inputs the moment the previous outputs are
    /// stable) to "a stable output word".  For combinational circuits this
    /// is the settle time; for sequential circuits it is the self-timed
    /// cycle time, including the register-update wave.  Meaningful in
    /// non-pipelined mode (in pipelined mode release_time is 0 and this is
    /// the absolute stabilization time).
    double delay() const { return output_stable - release_time; }
};

struct sim_run_stats {
    /// events (token deposits) and firings count engine work (one
    /// word-firing serves up to 64 lanes in lane mode); the ee_* counters
    /// count per-lane semantics (a lane firing contributes once per
    /// occupied lane), so EE hit rates agree with the equivalent serial
    /// runs.
    std::uint64_t events = 0;
    std::uint64_t firings = 0;
    std::uint64_t ee_hits = 0;    ///< master firings with efire == 1
    std::uint64_t ee_misses = 0;  ///< master firings with efire == 0
    std::uint64_t ee_wins = 0;    ///< hits where the efire path strictly won
    // Lane-engine telemetry (zero for scalar runs).
    std::uint64_t lane_blocks = 0;   ///< stimulus blocks simulated
    std::uint64_t lane_vectors = 0;  ///< vectors (occupied lanes) simulated
    /// EE master firings whose mixed efire word made lane times diverge.
    std::uint64_t lane_splits = 0;
    /// Deposits (events) that carried a per-lane time slab: the divergent
    /// cone's share of the lane engine's work.
    std::uint64_t lane_slab_deposits = 0;
};

/// Result of one lane-parallel block run: per-lane measurements plus the
/// primary output values in lane-packed form (bit L of outputs[j] = lane L's
/// value of sink j).  Lane L reproduces run({vector L}) bit for bit.
struct lane_block_result {
    std::size_t num_vectors = 0;  ///< occupied lanes (== block.num_vectors)
    std::vector<std::uint64_t> outputs;       ///< per sink, lane-packed
    std::array<double, k_lanes> input_stable{};   ///< per lane
    std::array<double, k_lanes> output_stable{};  ///< per lane
    /// Per-lane release time — when the environment could present the
    /// lane's inputs.  Every lane is an independent single-vector run from
    /// reset, so this is 0.0 today, but delay() subtracts it (mirroring
    /// wave_record::delay) rather than assuming it, so a nonzero release
    /// epoch can never silently inflate the reported delay.
    std::array<double, k_lanes> release{};
    /// The paper's per-vector delay for lane L, measured exactly like the
    /// scalar wave_record::delay(): stable output minus release.
    double delay(std::size_t lane) const {
        return output_stable[lane] - release[lane];
    }
};

class pl_simulator {
public:
    explicit pl_simulator(const pl::pl_netlist& pl, sim_options options = {});

    /// Runs `vectors.size()` waves; vectors[k] holds the wave-k value of each
    /// primary input in pl.sources() order.  Throws the typed failures of
    /// sim/errors.hpp: deadlock_error, budget_exhausted,
    /// invariant_violation (safety / EE invariant), and plee::job_timeout
    /// when options.cancel expires mid-run.  Packs the vectors and delegates
    /// to run_packed.
    std::vector<wave_record> run(const std::vector<std::vector<bool>>& vectors);

    /// The same sequential-wave protocol over bit-packed stimulus: wave k is
    /// lane (k % 64) of blocks[k / 64].  Every block except the last must be
    /// full (64 vectors).  This is the allocation-light path measure uses.
    std::vector<wave_record> run_packed(const std::vector<stimulus_block>& blocks);

    /// Lane-parallel mode: simulates every occupied lane of `block` as an
    /// independent single-vector run from reset, all lanes in one pass.
    /// Lane L of the result is bit-identical to run({vector L}).  stats()
    /// afterwards covers the whole block: events/firings count engine work,
    /// ee_* count per-lane semantics.  Throws the same typed failures as
    /// run.  Requires options.collect_trace == false (throws
    /// std::invalid_argument — lane tokens have no single trace value).
    lane_block_result run_lanes(const stimulus_block& block);

    const sim_run_stats& stats() const { return stats_; }

    /// Data-token arrivals recorded by the last run (empty unless
    /// options.collect_trace), sorted by (time, edge); one edge's deposits
    /// are in wave order.
    const std::vector<trace_event>& trace() const { return trace_; }

private:
    /// Precomputed per-gate firing metadata: everything a firing needs,
    /// gathered from pl_gate / trigger gate / source-sink indices into one
    /// flat record so the hot path reads a single array.  Cache-line
    /// aligned: the scalar fields and the low function word share the first
    /// line; only >6-input gates (and wide triggers) reach into the second.
    struct alignas(64) gate_desc {
        pl::gate_kind kind = pl::gate_kind::compute;
        std::uint8_t num_data = 0;        ///< LUT operand count (<= 8)
        std::uint8_t trig_pin_count = 0;  ///< master: trigger support size
        bool const_value = false;
        std::uint32_t in_begin = 0, in_end = 0;    ///< topo_.in_flat range
        std::uint32_t data_begin = 0;              ///< topo_.data_flat offset
        std::uint32_t out_begin = 0, out_end = 0;  ///< topo_.out_flat range
        pl::edge_id efire_in = pl::k_invalid_edge;
        std::uint32_t env_slot = 0;  ///< position in sources() / sinks()
        /// Master: trigger pin i taps master data pin trig_pins[i] — the
        /// pin-packing map that replaces bf::support_members at fire time.
        std::uint8_t trig_pins[bf::k_max_vars] = {};
        /// LUT truth-table words; minterm m is bit (m & 63) of word (m >> 6).
        std::array<std::uint64_t, bf::k_num_words> fn_bits{};
        /// Master: trigger function words, same layout over the packed pins.
        std::array<std::uint64_t, bf::k_num_words> trig_fn_bits{};
    };

    void reset();
    template <bool Lanes>
    void run_worklist();
    void check_events(std::uint64_t events, const char* engine);
    /// The event checks of one deposit: the budget on every event, the
    /// periodic checks on every k_cancel_check_events-th.
    void count_event(const char* engine) {
        const std::uint64_t events = ++stats_.events;
        if (events > options_.max_events ||
            (events & (k_cancel_check_events - 1)) == 0) {
            check_events(events, engine);
        }
    }
    [[noreturn]] void throw_occupied(pl::edge_id edge, const char* engine) const;
    [[noreturn]] void throw_ee_mismatch(const char* engine) const;
    std::string deadlock_diagnostic() const;

    // --- Dataflow engine (sequential waves) ---------------------------------
    void deposit_token(pl::edge_id edge, bool value, double time);
    void try_fire_fast(pl::gate_id g);
    void fire_source_fast(pl::gate_id g);
    void record_sink_fast(pl::gate_id g);
    bool token_value(pl::edge_id e) const {
        return (tok_value_[e >> 6] >> (e & 63)) & 1u;
    }

    // --- Lane engine (64-bit value words, per-lane times where divergent) ---
    void deposit_lanes(pl::edge_id edge, std::uint64_t word, double time);
    void deposit_lanes_slab(pl::edge_id edge, std::uint64_t word,
                            const double* times);
    /// Consumes g's input tokens and counts the firing; max-accumulates the
    /// tokens' per-lane times into tr[0..63] (pre-filled with the floor).
    void consume_lanes(pl::gate_id g, double* tr);
    /// Deposits one emission on every output edge of d: ack edges at the
    /// per-lane times `ta`, data edges at `to`, each as a scalar deposit
    /// when its times agree across lanes and as a slab otherwise.
    void emit_lanes(const gate_desc& d, std::uint64_t value, const double* to,
                    const double* ta);
    void check_trigger_lanes(const gate_desc& d, const std::uint64_t* ins,
                             std::uint64_t efire_word) const;
    std::uint64_t lane_word(const gate_desc& d, const std::uint64_t* ins) const;
    double fire_delay(const gate_desc& d) const;
    void try_fire_lanes(pl::gate_id g);
    void try_fire_lanes_slab(pl::gate_id g);
    void fire_source_lanes(pl::gate_id g);
    void record_sink_lanes(pl::gate_id g);
    /// Max-accumulates the per-lane arrival times of edges[begin, end) into
    /// out[0..63].
    void gather_times(const pl::edge_id* edges, std::uint32_t begin,
                      std::uint32_t end, double* out) const;
    bool edge_time_varies(pl::edge_id e) const {
        return (lane_time_varies_[e >> 6] >> (e & 63)) & 1u;
    }

    /// Wave k's value of source slot `slot`: lane (k & 63) of block (k >> 6).
    bool stim_bit(std::size_t wave, std::uint32_t slot) const {
        return (stim_[wave >> 6].words[slot] >> (wave & 63)) & 1u;
    }

    const pl::pl_netlist& pl_;
    sim_options options_;
    sim_run_stats stats_;

    // Static structure (built once per netlist).
    pl::flat_topology topo_;
    std::vector<gate_desc> desc_;
    std::vector<std::uint32_t> in_count_;  ///< per gate: |in_edges|

    // Per-run state — both engines.
    std::vector<std::uint64_t> tok_present_;  ///< presence bitset, per edge
    std::vector<double> tok_time_;            ///< arrival time, per edge
    std::vector<pl::gate_id> worklist_;       ///< enabled gates, LIFO
    std::vector<std::uint32_t> pending_;      ///< per gate: inputs without tokens
    std::vector<std::uint32_t> fired_waves_;  ///< per gate: completed firings
    bool trace_on_ = false;  ///< options_.collect_trace, hoisted

    // Per-run state — dataflow engine.
    std::vector<std::uint64_t> tok_value_;  ///< value bitset, per edge
    std::vector<trace_event> trace_;
    const stimulus_block* stim_ = nullptr;  ///< sequential-wave stimulus
    std::vector<stimulus_block> packed_stim_;  ///< run(vectors) pack buffer
    std::size_t num_waves_ = 0;
    std::size_t released_waves_ = 0;
    std::vector<double> release_time_;        ///< per wave
    std::vector<double> input_stable_;        ///< per wave
    std::vector<double> output_stable_;       ///< per wave
    std::vector<std::size_t> sinks_pending_;  ///< per wave: sinks not yet arrived
    std::size_t waves_stable_ = 0;
    std::vector<std::vector<bool>> wave_outputs_;

    // Per-run state — lane engine.
    std::vector<std::uint64_t> lane_value_;  ///< per edge: lane-packed value
    std::uint64_t lane_mask_ = 0;            ///< the block's occupied lanes
    const stimulus_block* lane_block_ = nullptr;
    std::vector<std::uint64_t> lane_sink_words_;  ///< per sink
    /// Per edge x lane: divergent-cone times.  Sized on the first slab
    /// deposit and never cleared: lane_time_varies_ gates every read.
    std::vector<double> lane_time_;
    std::vector<std::uint64_t> lane_time_varies_;  ///< bitset: slab is live
    std::array<double, k_lanes> input_stable_lane_{};
    std::array<double, k_lanes> output_stable_lane_{};
};

}  // namespace plee::sim
