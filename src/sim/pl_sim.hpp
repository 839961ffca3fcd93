// pl_sim.hpp — token-level simulator for Phased Logic netlists.
//
// Simulates the marked-graph semantics of a PL circuit with valued tokens and
// the delay model of delay_model.hpp.  A gate fires once a token is present
// on every input edge (the Muller-C completion rule); firing consumes one
// token per input edge and deposits tokens on every output edge at
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
// ## Compile, then evaluate
//
// A PL circuit is a live, safe marked graph: every gate fires once per wave,
// and its token-free subgraph is acyclic (Section 2).  Gate g's wave-k
// firing consumes, on each input edge, the token its producer emitted in
// wave k (a token-free edge) or in wave k-1 (an initially marked edge; the
// initial token is wave -1's).  So a wave is one pass over a fixed
// topological order of the token-free subgraph, with max-plus arithmetic on
// the token times — how static timing analysis propagates arrival times
// without an event list.  The constructor compiles that order once, and one
// schedule serves both protocols:
//
//  * Record.  One 32-byte record per position of the netlist's token-free
//    order (pl_netlist::token_free_order, a FIFO Kahn order built with its
//    CSR): the ref range, the data-pin count, the kind, the efire ref, an
//    offset into one LUT-word pool, the env slot and the delay.  Side
//    arrays hold the deposit prefix sums (all deposits, and data deposits
//    for the lane accounting) and each position's gate.  A master's
//    trigger is an ordinary position: no firing reads a trigger's function
//    or support.
//  * Ref order.  A position lists its data pins first, in pin order, then
//    its other in-edges (acks and efire), each in-edge once.  A ref is
//    (slot << 1) | marked, slot = 2 * producer position + (1 for an ack),
//    so t_data is the running max after the pins and t_ready the max over
//    all refs.
//  * Slots.  times_ and values_ interleave the two wave parities as
//    (slot << 1) | parity; a value sits at the index of its producer's
//    t_out.  Wave k writes parity k & 1 and reads ref ^ (k & 1), so a
//    marked ref reads the previous wave; the lane wave writes parity 0 and
//    reads ref itself, so a marked ref reads parity 1.  Every run first
//    writes the wave -1 preset (time 0, the initial value) into parity 1.
//  * Two time planes.  Each slot holds two times, {plain, ee}: `ee` times
//    the netlist as it is, and `plain` the same netlist with every trigger
//    gate and its edges removed, the mapping before the EE pass
//    (attach_trigger only appends a trigger, its taps and acknowledges, the
//    efire edge and its acknowledge).  A trigger writes 0.0 to both of its
//    plain slots, and every max starts from 0.0, so no plain firing sees an
//    EE-only ref; a master's plain time is the compute-gate rule, t_ready +
//    gate_delay.  Each ref is one 16-byte load and one two-lane max.  Values
//    are shared: they do not depend on timing, and EE changes no operand
//    edge.  So one compile and one run of an EE netlist measure both arms of
//    a Table 3 row.
//
//  * run / run_packed — the sequential-wave protocol: the waves back to
//    back, one bit per value.
//  * run(vectors, trace) — the same run, recording every data-token
//    arrival for waveform (VCD) export.  The wave loop takes a per-firing
//    observer as a template argument: this overload passes a recorder, and
//    every other run an empty one, so a measurement's loop has no trace
//    branch and its schedule no trace edges.
//  * run_lanes — per stimulus block, 64 independent single-vector runs in
//    one wave over 64-bit value words (below); the blocks back to back.
//
// Contracts (tests/test_sim_queue.cpp and tests/test_sim_differential.cpp
// check the evaluator against a time-ordered binary-heap oracle,
// tests/heap_oracle.hpp):
//
//  * Safety is a precondition.  The constructor calls pl_netlist::verify(),
//    which returns a remembered pass at once.  Every schedule finding
//    throws from the constructor, engine "schedule", 0 events: a token-free
//    cycle or a sink without a data input raises deadlock_error; any other
//    verify() failure, marked data out-edges of one producer with
//    different initial values, or a compute or trigger gate whose
//    function's arity is not its pin count raises invariant_violation.
//  * EE invariant.  The constructor proves each EE pair once: the trigger
//    reads exactly its support pins, and it is sound (where it is 1, the
//    master's output no longer depends on its other pins).  A failure
//    throws invariant_violation (engine "schedule", 0 events) naming the
//    master.  See check_ee_pair.
//  * Event count.  stats().events counts token deposits: each firing adds
//    its out-degree.  A run that exceeds max_events throws at exactly
//    max_events + 1; whenever the count crosses a multiple of
//    k_cancel_check_events, the cancel poll and the sim.progress beat run.
//    Every position fires once per wave, so the count is kept per wave: a
//    wave adds its fixed total at the end, and the checks run at the one
//    firing whose deposits reach the next check point, found from the
//    prefix sums.  Budget and beats are those of counting every firing.
//    A run is one call: the count, the budget and the beats carry across
//    the waves of run_packed and across the blocks of run_lanes alike.
//  * Trace order.  The traced run emits one event per data out-edge per
//    firing in wave order, then stable-sorts them by (time, edge); one
//    edge's deposits stay in wave order.
//
// ## Lane-parallel mode (run_lanes)
//
// run_lanes packs 64 independent single-vector simulations into one
// evaluation: every value is a 64-bit word (bit L = lane L's value), and LUT
// and trigger evaluation run through the mux-tree word kernel
// bf::truth_table::eval_word_lanes.  Token *values* are timing-independent
// in a marked graph, so the value words are correct for all 64 lanes
// unconditionally; only the *times* can diverge, and the single place they
// can is an EE master whose efire word is mixed across lanes with the early
// path actually faster.  Such a firing gives its output a per-lane time
// slab (64 doubles) while everything upstream and reconverged keeps one
// shared scalar time.  Each lane's result is bit-identical to a serial
// run({vector}) of that lane.  See src/sim/README.md.
//
// A lane firing reads its refs once, for both planes' maxes (a slab's EE
// time reads 0.0) and the list of its refs' slabs; with none and no split
// it stores scalars.  Otherwise fire_lanes_slab, one instance per role,
// makes one pass over eight 8-lane chunks (four time2 each), with no
// per-lane branch: it maxes the slabs in registers, selects a master's
// early or normal time by its efire bits, writes the times into the
// position's own pool slabs (one reserved per parity-0 slot; a dead slot,
// see gate_rec::live, gets none) and keeps t_ready's min and max over all
// 64 lanes.  A slot whose min is its max stores a scalar.  rdtsc on the
// seed-7 lut4-lanes netlists: ~310 ticks per master slab firing and ~165
// per other, against ~1,040 and ~320 for the gather, select and copy
// passes this replaced.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "plogic/pl_netlist.hpp"
#include "rt/job_context.hpp"
#include "sim/delay_model.hpp"
#include "sim/stimulus.hpp"

namespace plee::sim {

struct sim_options {
    delay_model delays{};
    /// Environment mode: true = vector-at-a-time (the paper's measurement),
    /// false = streaming tokens limited only by the handshakes.
    bool non_pipelined = true;
    /// Hard limit on processed events (runaway guard).  Tripping it raises
    /// sim::budget_exhausted (see sim/errors.hpp).
    std::uint64_t max_events = 100'000'000;
};

/// One recorded data-token arrival (see pl_simulator::run's traced
/// overload).
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

    /// The plain plane's release_time, input_stable and output_stable: the
    /// same wave of the netlist with every trigger gate and its edges
    /// removed (see pl_simulator).  `outputs` serves both planes.
    double plain_release_time = 0.0;
    double plain_input_stable = 0.0;
    double plain_output_stable = 0.0;
    /// delay() of the plain plane.
    double plain_delay() const { return plain_output_stable - plain_release_time; }
};

struct sim_run_stats {
    /// events (token deposits) and firings count evaluator work (one
    /// word-firing serves up to 64 lanes in lane mode); the ee_* counters
    /// count per-lane semantics (a lane firing contributes once per
    /// occupied lane), so EE hit rates agree with the equivalent serial
    /// runs.
    std::uint64_t events = 0;
    std::uint64_t firings = 0;
    std::uint64_t ee_hits = 0;    ///< master firings with efire == 1
    std::uint64_t ee_misses = 0;  ///< master firings with efire == 0
    std::uint64_t ee_wins = 0;    ///< hits where the efire path strictly won
    // Lane telemetry (zero for scalar runs).
    std::uint64_t lane_blocks = 0;   ///< stimulus blocks simulated
    std::uint64_t lane_vectors = 0;  ///< vectors (occupied lanes) simulated
    /// EE master firings whose mixed efire word made lane times diverge.
    std::uint64_t lane_splits = 0;
    /// Deposits (events) that carried a per-lane time slab: the divergent
    /// cone's share of the lane protocol's work.
    std::uint64_t lane_slab_deposits = 0;
};

/// One stimulus block of a lane-parallel run: per-lane measurements plus the
/// primary output values in lane-packed form (bit L of outputs[j] = lane L's
/// value of sink j).  Lane L reproduces run({vector L}) bit for bit.  Every
/// lane is released at time 0, so output_stable[L] is lane L's delay, the
/// wave_record::delay() of that run.
struct lane_block_result {
    std::size_t num_vectors = 0;  ///< occupied lanes (== block.num_vectors)
    std::vector<std::uint64_t> outputs;       ///< per sink, lane-packed
    std::array<double, k_lanes> input_stable{};   ///< per lane
    std::array<double, k_lanes> output_stable{};  ///< per lane

    /// The plain plane's stable times (see pl_simulator).  The plain
    /// circuit has no EE master and every lane runs from reset, so its times
    /// agree across lanes: one value per block, plain_output_stable being
    /// every lane's plain delay.
    double plain_input_stable = 0.0;
    double plain_output_stable = 0.0;
};

class pl_simulator {
public:
    /// Compiles the netlist's wave schedule (see the top of this file), or
    /// throws what makes the netlist unrunnable (see Safety and EE
    /// invariant above): deadlock_error or invariant_violation, engine
    /// "schedule", 0 events.  Keeps a copy of `ctx`: its label names the
    /// job in every typed failure, and the periodic checks (see Event count
    /// above) poll it at site "sim.events" and record its "sim.progress"
    /// beats (events, waves stable).
    explicit pl_simulator(const pl::pl_netlist& pl, sim_options options = {},
                          const job_context& ctx = {});

    /// Runs `vectors.size()` waves; vectors[k] holds the wave-k value of each
    /// primary input in pl.sources() order.  Throws budget_exhausted
    /// (sim/errors.hpp), and plee::job_timeout when the context's token
    /// expires mid-run.  Packs the vectors and delegates to run_packed.
    std::vector<wave_record> run(const std::vector<std::vector<bool>>& vectors);

    /// run(vectors), recording every data-token arrival into `trace`, whose
    /// contents it replaces: one event per data edge per wave, sorted by
    /// (time, edge), one edge's deposits in wave order.  The only traced
    /// run; waves and stats() are run(vectors)'s.
    std::vector<wave_record> run(const std::vector<std::vector<bool>>& vectors,
                                 std::vector<trace_event>& trace);

    /// The same sequential-wave protocol over bit-packed stimulus: wave k is
    /// lane (k % 64) of blocks[k / 64].  Every block except the last must be
    /// full (64 vectors).  This is the allocation-light path measure uses.
    std::vector<wave_record> run_packed(const std::vector<stimulus_block>& blocks);

    /// Lane-parallel mode: simulates every occupied lane of each block as an
    /// independent single-vector run from reset, all lanes of a block in
    /// one pass, the blocks in order.  Returns one result per block; lane L
    /// of result b is bit-identical to run({vector L of blocks[b]}).  Each
    /// block holds 1..64 vectors.  Like run_packed, this is one run:
    /// stats() afterwards covers every block (events/firings count
    /// evaluator work, ee_* count per-lane semantics), and the event
    /// budget, the cancel poll and the sim.progress beats (stamped with the
    /// blocks done) see the count of the whole run.  Throws the same typed
    /// failures as run.
    std::vector<lane_block_result> run_lanes(const std::vector<stimulus_block>& blocks);

    /// After a throw only events is meaningful: the count the error names.
    const sim_run_stats& stats() const { return stats_; }

    /// stats() of the last run's plain plane, which are static: per wave,
    /// `events` counts the deposits of non-trigger positions on edges with
    /// no trigger at either end, and `firings` the non-trigger positions.
    /// The ee_* counters, lane_splits and lane_slab_deposits are 0;
    /// lane_blocks and lane_vectors equal stats()'s.  Not set by a run that
    /// throws.
    const sim_run_stats& plain_stats() const { return plain_stats_; }

private:
    /// One input edge as the schedule reads it: (slot << 1) | marked, where
    /// slot = 2 * producer position + (1 for an ack edge).  Index
    /// (slot << 1) | parity of times_ holds that slot's time in one wave
    /// parity, and the same index of values_ the producer's value.
    using in_ref = std::uint32_t;
    static constexpr in_ref k_no_ref = 0xffffffffu;

    /// How a position fires: a LUT lookup (compute, trigger, through and
    /// constant gates), an EE master, or an environment port.
    enum class role : std::uint8_t { gate, master, source, sink };

    /// gate_rec::live bits: an unmarked ref reads the position's data slot
    /// or its ack slot.  The lane wave reads no other slot of parity 0.
    static constexpr std::uint8_t k_data_live = 1;
    static constexpr std::uint8_t k_ack_live = 2;
    /// gate_rec::live bit: a trigger gate, absent from the plain plane.
    static constexpr std::uint8_t k_trigger = 4;

    /// One slot's two times, {plain, ee} (see the top of this file).  A
    /// GCC/Clang vector, so a ref's max is one two-lane operation.
    using time2 = double __attribute__((vector_size(16)));
    /// The two-lane max and min, lane for lane std::max(a, b) and
    /// std::min(a, b).
    static time2 max2(time2 a, time2 b) { return a < b ? b : a; }
    static time2 min2(time2 a, time2 b) { return b < a ? b : a; }

    /// One scheduled position.
    struct alignas(32) gate_rec {
        std::uint32_t ref_begin = 0;  ///< refs_ range: the data pins, then
        std::uint32_t ref_end = 0;    ///< the other in-edges
        std::uint32_t fn_off = 0;     ///< fn_pool_ offset of the LUT words
        in_ref efire = k_no_ref;      ///< master: the efire edge
        std::uint32_t env_slot = 0;   ///< position in sources() / sinks()
        std::uint8_t num_data = 0;    ///< LUT operand count (<= 8)
        role kind = role::gate;
        std::uint8_t live = 0;        ///< k_data_live | k_ack_live | k_trigger
        double delay = 0.0;           ///< t_out - t_ready off the EE path
    };
    static_assert(sizeof(gate_rec) == 32);

    /// Builds the schedule, or throws (see the constructor).
    void compile();
    /// Proves the EE invariant of `master` and its trigger, or throws
    /// invariant_violation (engine "schedule", 0 events) naming the master.
    void check_ee_pair(pl::gate_id master) const;
    void begin_run();
    /// The first position at or after `from` whose firing brings the count
    /// to check_at_, or the position count when no firing of this wave does.
    std::uint32_t next_stop(std::uint32_t from) const;
    /// Sets the count per-firing counting has after position s, runs the
    /// periodic checks and returns the next stop.
    std::uint32_t reach(std::uint32_t s, const char* engine);
    void check_events(const char* engine);

    /// Checks `vectors` and packs them into packed_stim_.
    const std::vector<stimulus_block>& pack(const std::vector<std::vector<bool>>& vectors);
    /// Checks `blocks`, starts a run over them and returns its records, one
    /// per vector, for run_waves to fill.
    std::vector<wave_record> begin_waves(const std::vector<stimulus_block>& blocks);
    /// Evaluates the waves of `records`, calling on_fire(s, t_out, value)
    /// after each firing of position s with its EE output time and value.
    template <class OnFire>
    void run_waves(std::vector<wave_record>& records, OnFire on_fire);
    /// Runs the lane wave of `block`, firing the schedule in order, into
    /// `out` (value-initialized); adds the wave to stats().
    void run_lane_wave(const stimulus_block& block, lane_block_result& out);
    /// The per-lane firing of position s, whose role is K, taken when an
    /// input carries a slab or a master's lanes split: one pass over 8-lane
    /// chunks that writes both EE times into the position's live slabs, then
    /// stores each as a scalar when its 64 lanes agree.  `t` and `t_data`
    /// are both planes' maxes over all refs and over the data pins, in which
    /// a slab ref's EE time reads 0.0; lane_slabs_[0, num_slabs) are the
    /// refs' slabs, the data pins' [0, data_slabs) first.
    template <role K>
    void fire_lanes_slab(std::uint32_t s, time2 t, time2 t_data, std::uint32_t data_slabs,
                         std::uint32_t num_slabs, lane_block_result& out);
    /// The slab of parity-0 slot index r: the slot's own, 32 pairs of lanes.
    time2* slab_at(in_ref r) const {
        return slab_pool_.get() + std::size_t{r >> 1} * (k_lanes / 2);
    }
    /// Gathers the LUT operand words of d into ins.
    void lane_operands(const gate_rec& d, std::uint64_t* ins) const {
        for (std::uint8_t pin = 0; pin < d.num_data; ++pin) {
            ins[pin] = values_[refs_[d.ref_begin + pin]];
        }
    }
    /// Data and acknowledge deposits of one firing of position s.
    std::uint32_t data_outs(std::uint32_t s) const {
        return data_deposits_[s + 1] - data_deposits_[s];
    }
    std::uint32_t ack_outs(std::uint32_t s) const {
        return static_cast<std::uint32_t>(deposits_[s + 1] - deposits_[s]) -
               data_outs(s);
    }

    /// Wave k's value of source slot `slot`: lane (k & 63) of block (k >> 6).
    bool stim_bit(std::size_t wave, std::uint32_t slot) const {
        return (stim_[wave >> 6].words[slot] >> (wave & 63)) & 1u;
    }

    const pl::pl_netlist& pl_;
    sim_options options_;
    job_context ctx_;
    sim_run_stats stats_;
    sim_run_stats plain_stats_;

    // The schedule (built once per netlist by compile()).
    std::vector<gate_rec> recs_;
    std::vector<in_ref> refs_;
    std::vector<std::uint64_t> fn_pool_;
    /// Deposits of positions [0, s), per s in [0, positions].
    std::vector<std::uint64_t> deposits_;
    /// Data deposits of positions [0, s), per s in [0, positions].
    std::vector<std::uint32_t> data_deposits_;
    std::vector<std::uint64_t> preset_;  ///< per position: wave -1 value
    std::vector<pl::gate_id> gate_of_;   ///< per position: its gate
    std::uint64_t plain_events_ = 0;   ///< plain_stats() events per wave
    std::uint64_t plain_firings_ = 0;  ///< plain_stats() firings per wave

    // Slots: 4 per position, (slot << 1) | parity (see in_ref).
    std::vector<time2> times_;
    std::vector<std::uint64_t> values_;

    // Per-run state.
    std::uint64_t next_check_ = 0;  ///< next periodic-check multiple
    std::uint64_t check_at_ = 0;    ///< min(next_check_, max_events)
    std::uint64_t wave_base_ = 0;   ///< stats_.events when the wave began
    std::size_t waves_stable_ = 0;
    const stimulus_block* stim_ = nullptr;     ///< sequential-wave stimulus
    std::vector<stimulus_block> packed_stim_;  ///< run(vectors) pack buffer

    // Lane state: per slot index, whether its EE time is a slab; per
    // parity-0 slot, its slab (slab_at).  A live slot is written by its
    // producer's firing before any same-wave reader, a dead one is never
    // read, and parity 1 is never a slab, so nothing is ever cleared and the
    // pool is never zero-filled.
    std::uint64_t lane_mask_ = 0;  ///< the block's occupied lanes
    std::vector<std::uint8_t> varies_;
    std::unique_ptr<time2[]> slab_pool_;
    /// One firing's slab refs, sized to the longest ref range.
    std::vector<const time2*> lane_slabs_;
};

}  // namespace plee::sim
