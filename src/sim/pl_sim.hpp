// pl_sim.hpp — event-driven token-level simulator for Phased Logic netlists.
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
// ## Two scalar engines
//
// The simulator is the dominant per-circuit cost of a fleet job, and the
// sequential-wave protocol (run / run_packed) exists twice behind
// sim_options::queue:
//
//  * queue_kind::calendar (default) — the queue-free dataflow engine.  A PL
//    circuit is a live, safe marked graph (Section 2), and under the
//    Figure 1/2 delay model every token time is a max/min recurrence over
//    the times of the tokens its firing consumed.  The wave-horizon cap
//    (src/sim/README.md) makes the set of firings the same in any enabling
//    order, so the times are too, and a time-ordered event list adds
//    nothing to exactness.  A firing writes each output token directly
//    (present bit, value, and t_out or t_ack as its time), and a consumer
//    whose pending-input count reaches 0 goes onto a LIFO gate worklist
//    that run_packed drains.  Token state is structure-of-arrays (presence
//    and value bitsets, a flat time array), adjacency comes from the CSR
//    arrays of pl::flat_topology, and per-gate firing metadata (kind, pin
//    counts, CSR offsets, LUT bits, trigger pin-packing map) is
//    precomputed into one cache-line-aligned descriptor array.  The lane
//    engine's vector policy rests on the same confluence, and static timing
//    analysis computes arrival times by max-plus propagation with no event
//    list for the same reason.
//
//  * queue_kind::binary_heap — the seed's std::push_heap engine over
//    array-of-structs token slots, popping deposits in (time, seq) order;
//    kept as the time-ordered reference for golden cross-checking.
//
// Contracts of the two engines (tests/test_sim_queue.cpp asserts them over
// the ITC99 suite, every workload preset and stress delay models; the
// cross-check also runs at bench time in bench_sim_queue, BENCH_sim.json):
//
//  * Results.  Wave records and every sim_run_stats counter are
//    bit-identical between the engines.
//  * Event count.  stats().events counts token deposits: one per popped
//    deposit in the heap engine, one per written output token in the
//    dataflow engine.  Both run the periodic checks (cancel poll, sim.fire
//    fault point, sim.progress beat) every k_cancel_check_events deposits.
//  * Trace order.  trace() is stable-sorted by (time, edge) at the end of
//    run_packed; one edge's deposits stay in wave order.
//  * Unsafe netlists.  The dataflow engine deposits at firing time, so it
//    checks the untimed marking: on a netlist pl_netlist::verify()
//    rejects, it reports every over-deposit the firing rule allows, even
//    where the heap engine's timing hides it.  A source with no acknowledge
//    input, run pipelined over 2 vectors, throws invariant_violation on the
//    default engine and completes on the heap engine.  Mapper output is
//    safe by construction, so measured results are unaffected.
//
// ## Lane-parallel mode (run_lanes)
//
// run_lanes packs 64 independent single-vector simulations into one engine
// pass: every data token carries a 64-bit value word (bit L = lane L's
// value), LUT and trigger evaluation run through the mux-tree word kernel
// bf::truth_table::eval_word_lanes, and one calendar event serves all lanes.
// Token *values* are timing-independent in a marked graph (every gate fires
// exactly once per wave whatever the delays), so the value words are correct
// for all 64 lanes unconditionally; only the *times* can diverge, and the
// single place they can is an EE master whose efire token differs across
// lanes (early vs normal output path) with the early path actually faster.
// What happens at such a divergence is the lane_split_policy:
//
//  * vector (default) — never split: token times are themselves
//    order-independent in a marked graph (each is a max/min recurrence over
//    its input tokens' times), so the divergent cone simply carries one
//    time per lane (a 64-double slab entry per edge) while everything
//    upstream and reconverged keeps a shared scalar time.  All 64 lanes
//    finish in one pass whatever the stimulus.
//  * fork — the mask splits, the majority keeps the pass, and the minority
//    branch's state at the split point (pending calendar deposits, present
//    tokens, per-gate firing counts, per-pass EE counters) is checkpointed
//    into a bounded fork record and later *resumes from the split* instead
//    of replaying the shared prefix.  A configurable byte budget degrades
//    gracefully to replay under split storms.
//  * replay — the PR 7 baseline: the minority lanes restart from t = 0.
//
// Independently, trigger-aware grouping (sim_options::lane_group) runs an
// untimed value-only prepass over the packed stimulus before simulating,
// partitions the lanes by their predicted efire words at the first masters
// that disagree, and gives each predicted-coherent group its own pass — so
// most splits never happen at all.  Each retained lane's result is
// bit-identical to a serial run({vector}) of that lane under every policy
// combination (asserted by tests/test_lane_sim.cpp over every workload
// preset and ITC99 b01-b10).  Circuits without EE (or with unanimous
// triggers) never split: one pass serves all 64 lanes.  See
// src/sim/README.md for the full contract.

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
#include "sim/calendar_queue.hpp"
#include "sim/delay_model.hpp"
#include "sim/stimulus.hpp"

namespace plee::sim {

/// Which scalar engine runs the sequential-wave protocol.  Results are
/// bit-identical either way; only throughput differs.
enum class queue_kind : std::uint8_t {
    binary_heap,  ///< time-ordered reference: std::push_heap over deposits
    /// Queue-free dataflow engine (default).  run_lanes keeps its calendar
    /// queue (calendar_queue.hpp) under this value.
    calendar,
};

/// What run_lanes does when an EE master's mixed efire word makes lane
/// timing diverge.  Results are bit-identical under every policy; only the
/// work to produce them differs (vector widens token times in place, fork
/// resumes from the split point, replay restarts from t = 0).
enum class lane_split_policy : std::uint8_t {
    /// Never split: token times are widened to one time per lane on the
    /// divergent cone, so all 64 lanes finish in a single pass (default).
    /// Exact because marked-graph token times obey an order-independent
    /// max/min recurrence, just like token values.
    vector,
    fork,    ///< checkpoint at the split, resume the minority branch
    replay,  ///< defer the minority to its own from-t0 pass (PR 7 baseline)
};

struct sim_options {
    delay_model delays{};
    /// Environment mode: true = vector-at-a-time (the paper's measurement),
    /// false = streaming tokens limited only by the handshakes.
    bool non_pipelined = true;
    /// Verify the EE invariant on every early fire: the trigger value
    /// recomputed from the master's consumed inputs must match the efire
    /// token, and a 1 trigger implies the subset determines the output.
    /// Affordable by default: the per-master pin-packing map is precomputed,
    /// so the check is a handful of shifts per EE firing.
    bool check_early_value = true;
    /// Record every data-token arrival for waveform (VCD) export.
    bool collect_trace = false;
    /// Hard limit on processed events (runaway guard).  Tripping it raises
    /// sim::budget_exhausted (see sim/errors.hpp).
    std::uint64_t max_events = 100'000'000;
    /// Scalar engine selection (see queue_kind).
    queue_kind queue = queue_kind::calendar;
    /// Lane-engine divergence handling (see lane_split_policy).
    lane_split_policy lane_policy = lane_split_policy::vector;
    /// Trigger-aware lane grouping: before each run_lanes block, an untimed
    /// value-only prepass predicts every EE master's efire word and the
    /// block's lanes are partitioned into groups that agree on the first
    /// masters that disagree, each group getting its own pass.  Prediction
    /// only — a wrong or truncated grouping still splits/forks correctly.
    bool lane_group = true;
    /// Upper bound on the bytes held by pending fork records.  A split that
    /// would exceed it degrades to the replay policy for that branch, so
    /// split storms stay memory-bounded.  Ignored under lane_policy::replay.
    std::size_t lane_fork_budget_bytes = std::size_t{32} << 20;
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

const char* to_string(queue_kind kind);
/// Accepts "heap" / "binary_heap" and "calendar"; throws
/// std::invalid_argument for anything else.
queue_kind queue_kind_from_string(const std::string& name);
/// The engine a measurement runs on: "heap" under binary_heap, otherwise
/// "dataflow" for the scalar path (lanes == 1) and "calendar" for run_lanes.
const char* engine_name(queue_kind kind, std::size_t lanes);

const char* to_string(lane_split_policy policy);
/// Accepts "vector", "fork" and "replay"; throws std::invalid_argument
/// otherwise.
lane_split_policy lane_split_policy_from_string(const std::string& name);

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
    /// count per-lane semantics (a lane-pass firing contributes once per
    /// lane the pass retains), so EE hit rates agree with the equivalent
    /// serial runs.
    std::uint64_t events = 0;
    std::uint64_t firings = 0;
    std::uint64_t ee_hits = 0;    ///< master firings with efire == 1
    std::uint64_t ee_misses = 0;  ///< master firings with efire == 0
    std::uint64_t ee_wins = 0;    ///< hits where the efire path strictly won
    // Lane-engine telemetry (zero for scalar runs).
    std::uint64_t lane_blocks = 0;   ///< stimulus blocks simulated
    std::uint64_t lane_vectors = 0;  ///< vectors (occupied lanes) simulated
    /// From-t0 engine passes: predicted groups plus replayed branches (1 =
    /// pure lockstep).  Fork resumes are *not* runs — they continue a pass.
    std::uint64_t lane_runs = 0;
    std::uint64_t lane_splits = 0;   ///< divergence events (mask partitions)
    /// Minority branches checkpointed at the split and resumed mid-stream
    /// (each one is a from-t0 replay avoided).
    std::uint64_t lane_forks = 0;
    /// Groups the trigger prepass predicted for this block (>= 1).
    std::uint64_t lane_groups = 0;
    /// Minority branches deferred to a from-t0 replay: policy::replay
    /// splits, plus fork-budget overflows.
    std::uint64_t lane_replays = 0;
    /// Deepest nesting of fork records reached (a fork of a fork = 2).
    std::uint64_t lane_fork_depth_max = 0;
    /// High-water mark of bytes held by pending fork records.
    std::uint64_t lane_fork_bytes_peak = 0;
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
    /// wave_record::delay) rather than assuming it: a pass that resumes
    /// from a fork checkpoint keeps absolute times, and any future nonzero
    /// release epoch must not silently inflate the reported delay.
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
    /// independent single-vector run from reset, all lanes advancing through
    /// one event stream while their schedules agree (see the header comment
    /// for the lockstep/divergence contract).  Lane L of the result is
    /// bit-identical to run({vector L}).  stats() afterwards covers the
    /// whole block: events/firings count engine work, ee_* count per-lane
    /// semantics, lane_runs tells how many passes the block needed.
    /// Requires options.collect_trace == false (throws std::invalid_argument
    /// — per-lane waveforms would need 64 scalar runs anyway).  Netlists
    /// that do not fit the calendar layout, and the binary_heap engine
    /// selection, fall back to 64 scalar runs internally.
    lane_block_result run_lanes(const stimulus_block& block);

    const sim_run_stats& stats() const { return stats_; }

    /// Resumed fork branches by divergence depth (index d = the d-th nested
    /// split of one pass; index 0 unused), accumulated across every
    /// run_lanes call since construction.  Feeds the sim.lane_fork_depth
    /// histogram in the measure telemetry flush.
    const std::array<std::uint64_t, k_lanes + 1>& fork_depth_counts() const {
        return fork_depth_counts_;
    }

    /// Data-token arrivals recorded by the last run (empty unless
    /// options.collect_trace), sorted by (time, edge); one edge's deposits
    /// are in wave order.
    const std::vector<trace_event>& trace() const { return trace_; }

private:
    struct token_slot {
        bool present = false;
        bool value = false;
        double time = 0.0;
    };
    /// Precomputed per-gate firing metadata: everything try_fire needs,
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
    void check_events(std::uint64_t events, const char* engine);
    [[noreturn]] void throw_occupied(pl::edge_id edge, const char* engine) const;
    std::string deadlock_diagnostic() const;

    // --- Reference engine (binary heap, AoS token slots) -------------------
    void run_heap();
    void schedule(pl::edge_id edge, bool value, double time);
    void place(pl::edge_id edge, bool value, double time);
    void try_fire(pl::gate_id g);
    void fire_source(pl::gate_id g);
    void record_sink(pl::gate_id g);

    // --- Dataflow engine (LIFO worklist, SoA tokens, CSR adjacency) --------
    void run_dataflow();
    void deposit_token(pl::edge_id edge, bool value, double time);
    void try_fire_fast(pl::gate_id g);
    void fire_source_fast(pl::gate_id g);
    void record_sink_fast(pl::gate_id g);
    bool token_value(pl::edge_id e) const {
        return (tok_value_[e >> 6] >> (e & 63)) & 1u;
    }

    // --- Lane engine (calendar queue, 64-bit value words per token) --------
    /// One present token of a fork checkpoint (sparse over the presence
    /// bitset): timing state plus the value word — values are
    /// timing-independent, but copying the 8 bytes alongside keeps the
    /// record self-contained and restore allocation-free.
    struct lane_fork_token {
        pl::edge_id edge = pl::k_invalid_edge;
        std::uint64_t value = 0;
        double time = 0.0;
    };
    /// One pending calendar deposit of a fork checkpoint: the packed event
    /// plus its lane payload word (the cal_event key has no room for it).
    struct lane_fork_deposit {
        cal_event event;
        std::uint64_t word = 0;
    };
    /// Checkpoint of the minority branch of one mixed-efire split: enough
    /// pass state to resume simulating those lanes from the split point
    /// instead of t = 0.  Per-gate pending counters are not stored — they
    /// are re-derived from the present-token set (pending[g] ==
    /// in_count[g] - present in-edges, an engine invariant).
    struct lane_fork_record {
        std::uint64_t mask = 0;     ///< lanes this branch owns
        std::uint32_t depth = 0;    ///< nested splits since the pass started
        std::size_t footprint = 0;  ///< bytes charged to the fork budget
        std::uint64_t next_seq = 0;
        double input_stable = 0.0;
        double output_stable = 0.0;
        std::size_t sinks_pending = 0;
        std::uint64_t hits = 0, misses = 0, wins = 0;  ///< per-pass EE state
        /// Per-lane hit/miss counts from mixed-but-non-diverging efire words
        /// (early >= normal): those words never split, so their EE outcome
        /// differs per lane within one pass and can't ride the scalar
        /// counters above.
        std::array<std::uint32_t, k_lanes> mixed_hits{};
        std::array<std::uint32_t, k_lanes> mixed_misses{};
        std::vector<std::uint32_t> fired_waves;        ///< per gate
        std::vector<lane_fork_token> tokens;
        std::vector<lane_fork_deposit> deposits;
        /// The split master's own emission: its inputs are already consumed
        /// but its outputs are unscheduled, and t_out is the one quantity
        /// the branches disagree on (the minority is uniform by
        /// construction, so its output path is already decided here).
        pl::gate_id split_gate = pl::k_invalid_gate;
        std::uint64_t split_value = 0;
        double split_t_out = 0.0;
        double split_t_ack = 0.0;

        std::size_t bytes() const {
            return sizeof(lane_fork_record) +
                   fired_waves.capacity() * sizeof(std::uint32_t) +
                   tokens.capacity() * sizeof(lane_fork_token) +
                   deposits.capacity() * sizeof(lane_fork_deposit);
        }
    };

    void run_lane_pass(std::uint64_t mask, lane_block_result& result);
    void run_lane_fork(lane_block_result& result);
    void run_lane_events();
    void commit_lane_pass(lane_block_result& result);
    void defer_minority(pl::gate_id g, std::uint64_t minority,
                        std::uint64_t efire_word, std::uint64_t value,
                        double t_ready, double t_data, double efire_time);
    void plan_lane_groups(const stimulus_block& block);
    void schedule_lanes(std::uint64_t tick, double time, pl::edge_id edge,
                        std::uint64_t word);
    void place_lanes(pl::edge_id edge, double time);
    void try_fire_lanes(pl::gate_id g);
    template <bool Vec>
    void try_fire_lanes_impl(pl::gate_id g);
    void fire_source_lanes(pl::gate_id g);
    void record_sink_lanes(pl::gate_id g);
    // Vector-time variants (lane_split_policy::vector): same firing rules,
    // but a token's time is per-lane wherever the EE cone made it diverge.
    void try_fire_lanes_vec(pl::gate_id g);
    void record_sink_lanes_vec(pl::gate_id g);
    void schedule_lanes_vec(pl::edge_id edge, std::uint64_t word,
                            const double* times);
    void gather_times_vec(const pl::edge_id* edges, std::uint32_t begin,
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
    std::size_t num_masters_ = 0;          ///< gates with an efire input

    // Per-run state — reference engine.
    std::vector<token_slot> tokens_;  ///< per edge (AoS)
    std::vector<deposit> heap_;       ///< min-heap via std::push_heap

    // Per-run state — dataflow and lane engines.
    std::vector<std::uint64_t> tok_present_;  ///< presence bitset, per edge
    std::vector<std::uint64_t> tok_value_;    ///< value bitset, per edge
    std::vector<double> tok_time_;            ///< arrival time, per edge
    std::vector<pl::gate_id> worklist_;       ///< dataflow: enabled gates, LIFO
    calendar_queue calendar_;                 ///< lane engine only

    // Per-run state — shared.
    bool trace_on_ = false;  ///< options_.collect_trace, hoisted
    std::vector<std::uint32_t> pending_;      ///< per gate: inputs without tokens
    std::vector<std::uint32_t> fired_waves_;  ///< per gate: completed firings
    std::uint64_t next_seq_ = 0;

    // Per-run state — lane engine.
    std::vector<std::uint64_t> lane_value_;     ///< per edge: lane-packed value
    std::vector<std::uint64_t> lane_sched_;     ///< per edge: in-flight value word
    std::vector<std::uint64_t> lane_inflight_;  ///< bitset: deposit scheduled
    std::uint64_t lane_mask_ = 0;               ///< lanes this pass simulates
    std::vector<std::uint64_t> lane_deferred_;  ///< masks awaiting a t0 pass
    const stimulus_block* lane_block_ = nullptr;
    std::vector<std::uint64_t> lane_sink_words_;  ///< per sink, this pass
    std::uint64_t lane_hits_ = 0;    ///< per-pass EE counters, committed at
    std::uint64_t lane_misses_ = 0;  ///< pass end x the lanes the pass kept
    std::uint64_t lane_wins_ = 0;
    /// Per-lane EE counts from mixed non-diverging efire words (see
    /// lane_fork_record::mixed_hits) — committed per kept lane at pass end.
    std::array<std::uint32_t, k_lanes> lane_mixed_hits_{};
    std::array<std::uint32_t, k_lanes> lane_mixed_misses_{};
    std::uint32_t lane_depth_ = 0;   ///< fork depth of the current pass
    std::vector<lane_fork_record> lane_forks_;  ///< LIFO: branches to resume
    std::vector<lane_fork_record> lane_fork_pool_;  ///< retired records, for
                                                    ///< allocation-free reuse
    // Vector-time pass state (lane_split_policy::vector).
    bool lane_vec_ = false;          ///< current pass carries per-lane times
    std::vector<double> lane_time_;  ///< per edge x lane: divergent-cone times
    std::vector<std::uint64_t> lane_time_varies_;  ///< bitset: slab is live
    std::array<double, k_lanes> output_stable_lane_{};
    std::size_t lane_fork_bytes_ = 0;  ///< bytes held by lane_forks_
    std::vector<cal_event> cal_scratch_;  ///< snapshot/restore staging
    std::array<std::uint64_t, k_lanes + 1> fork_depth_counts_{};
    // Trigger-prepass scratch (value-only dataflow, no times, no queue).
    std::vector<std::uint64_t> pre_value_;      ///< per edge: value word
    std::vector<std::uint32_t> pre_pending_;    ///< per gate
    std::vector<std::uint32_t> pre_fired_;      ///< per gate
    std::vector<pl::gate_id> pre_worklist_;
    std::vector<std::uint64_t> group_masks_;    ///< planned per-group masks

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
};

}  // namespace plee::sim
