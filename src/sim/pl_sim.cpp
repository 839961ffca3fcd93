#include "sim/pl_sim.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "ee/trigger_search.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/errors.hpp"

namespace plee::sim {

namespace {

/// A register's identity table: minterm m maps to m & 1.
constexpr std::uint64_t k_identity_word = 0xaaaaaaaaaaaaaaaaull;

/// "<id> '<name>'", how the schedule's failures name a gate.
std::string gate_text(const pl::pl_netlist& pl, pl::gate_id g) {
    return std::to_string(g) + " '" + std::string(pl.name(g)) + "'";
}

bool fires(const pl::pl_netlist& pl, pl::gate_id g) {
    return !pl.in_edges(g).empty() ||
           (pl.gate(g).kind == pl::gate_kind::source && !pl.out_edges(g).empty());
}

}  // namespace

pl_simulator::pl_simulator(const pl::pl_netlist& pl, sim_options options,
                           const job_context& ctx)
    : pl_(pl), options_(std::move(options)), ctx_(ctx) {
    compile();
}

// ---------------------------------------------------------------------------
// Compile: the netlist's token-free order, one in-ref per input edge, and
// the wave -1 preset.
// ---------------------------------------------------------------------------

void pl_simulator::compile() {
    const std::size_t num_gates = pl_.num_gates();
    if (num_gates >= (std::size_t{1} << 29)) {
        throw std::length_error("pl_simulator: too many gates for a 32-bit ref");
    }
    const std::span<const pl::gate_id> order = pl_.token_free_order();
    if (order.size() < num_gates) {
        // Every gate missing from the order waits on a token-free edge from
        // another missing one, so walking back along such edges from the
        // first closes the cycle.
        std::vector<bool> ordered(num_gates, false);
        for (const pl::gate_id g : order) ordered[g] = true;
        pl::gate_id g = static_cast<pl::gate_id>(
            std::find(ordered.begin(), ordered.end(), false) - ordered.begin());
        std::vector<bool> seen(num_gates, false);
        while (!seen[g]) {
            seen[g] = true;
            for (pl::edge_id e : pl_.in_edges(g)) {
                const pl::pl_edge& edge = pl_.edge(e);
                if (!edge.init_token && !ordered[edge.from]) {
                    g = edge.from;
                    break;
                }
            }
        }
        throw deadlock_error(ctx_.label,
                             "token-free cycle through gate " + gate_text(pl_, g) +
                                 " (" + std::to_string(num_gates - order.size()) +
                                 " of " + std::to_string(num_gates) +
                                 " gates can never fire)",
                             0, "schedule");
    }
    // Safety is a precondition, checked once: the mapper leaves a passed
    // check remembered on the netlist, and the EE pass keeps it.
    const pl::mg_report report = pl_.verify();
    if (!report.ok()) {
        throw invariant_violation(
            "netlist fails marked-graph verification: " + report.violation, ctx_.label,
            0, "schedule");
    }
    for (pl::gate_id g : pl_.sinks()) {
        if (pl_.data_in(g).empty()) {
            throw deadlock_error(ctx_.label,
                                 "sink " + gate_text(pl_, g) + " has no data input", 0,
                                 "schedule");
        }
    }

    constexpr std::uint32_t k_unscheduled = 0xffffffffu;
    std::vector<std::uint32_t> pos(num_gates, k_unscheduled);
    std::vector<pl::gate_id> scheduled;
    for (pl::gate_id g : order) {
        if (!fires(pl_, g)) continue;
        pos[g] = static_cast<std::uint32_t>(scheduled.size());
        scheduled.push_back(g);
    }
    const std::size_t n = scheduled.size();
    const auto ref_of = [&](pl::edge_id e) {
        const pl::pl_edge& edge = pl_.edge(e);
        const std::uint32_t slot =
            2 * pos[edge.from] + (edge.kind == pl::edge_kind::ack ? 1u : 0u);
        return (slot << 1) | (edge.init_token ? 1u : 0u);
    };
    times_.assign(4 * n, time2{0.0, 0.0});
    values_.assign(4 * n, 0);
    recs_.resize(n);
    preset_.assign(n, 0);
    deposits_.assign(n + 1, 0);
    trace_off_.assign(n + 1, 0);
    const delay_model& dm = options_.delays;
    for (std::uint32_t s = 0; s < n; ++s) {
        const pl::gate_id g = scheduled[s];
        const pl::pl_gate& gate = pl_.gate(g);
        const std::span<const pl::edge_id> out_edges = pl_.out_edges(g);
        gate_rec& d = recs_[s];
        d.num_data = gate.num_data;
        d.ref_begin = static_cast<std::uint32_t>(refs_.size());
        // The data pins, then every in-edge that is no LUT operand.
        for (pl::edge_id e : pl_.data_in(g)) refs_.push_back(ref_of(e));
        for (pl::edge_id e : pl_.in_edges(g)) {
            if (pl_.edge(e).to_pin < 0) refs_.push_back(ref_of(e));
        }
        d.ref_end = static_cast<std::uint32_t>(refs_.size());

        bool marked = false;
        for (pl::edge_id e : out_edges) {
            const pl::pl_edge& edge = pl_.edge(e);
            if (edge.kind == pl::edge_kind::ack) continue;
            trace_edges_.push_back(e);
            if (!edge.init_token) continue;
            const std::uint64_t value = edge.init_value ? ~std::uint64_t{0} : 0;
            if (marked && preset_[s] != value) {
                throw invariant_violation("marked data out-edges of gate " +
                                              gate_text(pl_, g) +
                                              " carry different initial values",
                                          ctx_.label, 0, "schedule");
            }
            marked = true;
            preset_[s] = value;
        }
        trace_off_[s + 1] = static_cast<std::uint32_t>(trace_edges_.size());
        deposits_[s + 1] = deposits_[s] + out_edges.size();
        if (gate.kind == pl::gate_kind::trigger) {
            d.live |= k_trigger;
        } else {
            // The plain plane's deposits: every edge with a trigger at one
            // end came with the EE pass.
            ++plain_firings_;
            for (pl::edge_id e : out_edges) {
                if (pl_.gate(pl_.edge(e).to).kind != pl::gate_kind::trigger) {
                    ++plain_events_;
                }
            }
        }

        // The LUT words: constants and registers get their constant and
        // identity tables, so every non-environment gate evaluates alike.
        d.fn_off = static_cast<std::uint32_t>(fn_pool_.size());
        switch (gate.kind) {
            case pl::gate_kind::source:
                d.kind = role::source;
                d.delay = dm.d_source;
                fn_pool_.push_back(0);
                break;
            case pl::gate_kind::sink:
                d.kind = role::sink;
                d.delay = dm.ack_delay();  // sinks emit acknowledges only
                fn_pool_.push_back(0);
                break;
            case pl::gate_kind::const_source:
                d.delay = dm.d_source;
                fn_pool_.push_back(gate.const_value ? ~std::uint64_t{0} : 0);
                break;
            case pl::gate_kind::through:
                d.delay = dm.through_delay();
                fn_pool_.push_back(k_identity_word);
                break;
            default:
                // A LUT evaluates its table at the minterm its pins form,
                // so the table must have exactly one variable per pin.
                if (gate.function.num_vars() != d.num_data) {
                    throw invariant_violation(
                        "gate " + gate_text(pl_, g) +
                            ": its function's arity differs from its pin count",
                        ctx_.label, 0, "schedule");
                }
                d.delay = dm.gate_delay();
                fn_pool_.insert(fn_pool_.end(), gate.function.words().begin(),
                                gate.function.words().begin() +
                                    bf::words_for(d.num_data));
                break;
        }
        if (gate.trigger == pl::k_invalid_gate) continue;
        d.kind = role::master;
        d.efire = ref_of(gate.efire_in);
        check_ee_pair(g);
    }
    // Which parity-0 slots an unmarked ref reads: the lane wave stores no
    // slab for any other.
    for (const in_ref r : refs_) {
        if ((r & 1u) == 0) recs_[r >> 2].live |= (r & 2u) != 0 ? k_ack_live : k_data_live;
    }
    for (const std::vector<pl::gate_id>* env : {&pl_.sources(), &pl_.sinks()}) {
        for (std::size_t i = 0; i < env->size(); ++i) {
            const std::uint32_t p = pos[(*env)[i]];
            if (p != k_unscheduled) recs_[p].env_slot = static_cast<std::uint32_t>(i);
        }
    }
}

/// The pin count is the whole wiring proof: attach_trigger, the only code
/// that pairs a master with a trigger, taps each support pin's producer
/// with the same marking; edges never change after that, and pins are only
/// appended.  So a trigger with popcount(support) pins reads the master's
/// support operands, and, values being timing-independent, its efire token
/// is their trigger in every wave and lane.  Both gates' arities were
/// checked when compile() reached them (the trigger first, through the
/// token-free efire edge), so the soundness test, the paper's definition of
/// a trigger, cannot throw untyped.
void pl_simulator::check_ee_pair(pl::gate_id master) const {
    const pl::pl_gate& m = pl_.gate(master);
    const pl::pl_gate& t = pl_.gate(m.trigger);
    const char* failed = nullptr;
    if (t.num_data != std::popcount(t.trigger_support)) {
        failed = "its trigger's pin count differs from its support size";
    } else if (!(t.function & ~ee::exact_trigger_function(m.function, t.trigger_support))
                    .is_constant_zero()) {
        failed = "its trigger fires where its output still depends on another pin";
    }
    if (failed != nullptr) {
        throw invariant_violation(
            "EE master gate " + gate_text(pl_, master) + ": " + failed, ctx_.label, 0,
            "schedule");
    }
}

/// Resets the per-run state and writes the wave -1 preset into parity 1.
void pl_simulator::begin_run() {
    stats_ = {};
    plain_stats_ = {};
    trace_.clear();
    waves_stable_ = 0;
    next_check_ = k_cancel_check_events;
    check_at_ = std::min(next_check_, options_.max_events);
    for (std::size_t s = 0; s < recs_.size(); ++s) {
        times_[4 * s + 1] = time2{0.0, 0.0};
        times_[4 * s + 3] = time2{0.0, 0.0};
        values_[4 * s + 1] = preset_[s];
    }
}

std::uint32_t pl_simulator::next_stop(std::uint32_t from) const {
    const std::uint64_t* const first = deposits_.data() + 1;
    const std::uint64_t* const last = deposits_.data() + deposits_.size();
    const std::uint64_t need = check_at_ > wave_base_ ? check_at_ - wave_base_ : 0;
    return static_cast<std::uint32_t>(
        std::lower_bound(first + from, last, need) - first);
}

std::uint32_t pl_simulator::reach(std::uint32_t s, const char* engine) {
    stats_.events = wave_base_ + deposits_[s + 1];
    check_events(engine);
    return next_stop(s + 1);
}

/// The event checks both protocols share: at every multiple of
/// k_cancel_check_events the count crossed, the cancel poll and the
/// progress beat; past max_events, the budget, which reports exactly
/// max_events + 1 events.
void pl_simulator::check_events(const char* engine) {
    while (next_check_ <= stats_.events && next_check_ <= options_.max_events) {
        ctx_.poll("sim.events", next_check_);
        if (ctx_.recorder != nullptr) {
            ctx_.recorder->record("sim.progress", next_check_, waves_stable_);
        }
        next_check_ += k_cancel_check_events;
    }
    if (stats_.events > options_.max_events) {
        stats_.events = options_.max_events + 1;
        throw budget_exhausted(ctx_.label, stats_.events, engine);
    }
    check_at_ = std::min(next_check_, options_.max_events);
}

// ---------------------------------------------------------------------------
// Sequential waves: the schedule evaluated wave after wave.
// ---------------------------------------------------------------------------

std::vector<wave_record> pl_simulator::run(
    const std::vector<std::vector<bool>>& vectors) {
    for (const auto& v : vectors) {
        if (v.size() != pl_.sources().size()) {
            throw std::invalid_argument("pl_simulator::run: vector width mismatch");
        }
    }
    // Transpose into the packed layout the evaluator reads from.
    const std::size_t width = pl_.sources().size();
    packed_stim_.assign((vectors.size() + k_lanes - 1) / k_lanes, {});
    for (auto& block : packed_stim_) {
        block.width = width;
        block.words.assign(width, 0);
    }
    for (std::size_t w = 0; w < vectors.size(); ++w) {
        stimulus_block& block = packed_stim_[w / k_lanes];
        block.num_vectors = w % k_lanes + 1;
        const std::uint64_t lane_bit = std::uint64_t{1} << (w % k_lanes);
        for (std::size_t i = 0; i < width; ++i) {
            if (vectors[w][i]) block.words[i] |= lane_bit;
        }
    }
    return run_packed(packed_stim_);
}

std::vector<wave_record> pl_simulator::run_packed(
    const std::vector<stimulus_block>& blocks) {
    std::size_t count = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        if (blocks[b].width != pl_.sources().size()) {
            throw std::invalid_argument("pl_simulator::run: vector width mismatch");
        }
        if (blocks[b].num_vectors == 0 || blocks[b].num_vectors > k_lanes ||
            (b + 1 < blocks.size() && blocks[b].num_vectors != k_lanes)) {
            throw std::invalid_argument(
                "pl_simulator::run: every stimulus block except the last "
                "must hold exactly 64 vectors");
        }
        count += blocks[b].num_vectors;
    }
    if (pl_.sinks().empty()) {
        throw std::invalid_argument("pl_simulator::run: netlist has no outputs");
    }

    begin_run();
    stim_ = blocks.data();
    std::vector<wave_record> records(count);
    for (wave_record& rec : records) rec.outputs.assign(pl_.sinks().size(), false);
    if (options_.collect_trace) {
        // One data token per data edge per wave.
        trace_.reserve(std::min<std::size_t>(count * trace_edges_.size(),
                                             std::size_t{1} << 20));
    }
    run_waves(records);
    plain_stats_.events = count * plain_events_;
    plain_stats_.firings = count * plain_firings_;

    // The trace contract: sorted by (time, edge), one edge's deposits in
    // wave order (the stable sort keeps the emission order per edge).
    std::stable_sort(trace_.begin(), trace_.end(),
                     [](const trace_event& a, const trace_event& b) {
                         return a.time != b.time ? a.time < b.time
                                                 : a.edge < b.edge;
                     });
    return records;
}

/// Wave k writes parity k & 1 and reads ref ^ (k & 1): a marked ref reads
/// the previous wave's parity, or the wave -1 preset when k == 0.  A wave is
/// complete before the next starts, so a source's release time (the
/// previous wave's output_stable, non-pipelined) is known when it fires.
/// Each time is a {plain, ee} pair (see the top of pl_sim.hpp).
void pl_simulator::run_waves(std::vector<wave_record>& records) {
    const std::uint32_t n = static_cast<std::uint32_t>(recs_.size());
    const gate_rec* const recs = recs_.data();
    const in_ref* const refs = refs_.data();
    const std::uint64_t* const pool = fn_pool_.data();
    time2* const times = times_.data();
    std::uint64_t* const values = values_.data();
    const delay_model& dm = options_.delays;
    const double ack_delay = dm.ack_delay();
    const double gate_delay = dm.gate_delay();
    const double efire_delay = dm.efire_delay();
    const double ee_penalty = dm.d_ee_penalty;
    constexpr double k_closed[2] = {std::numeric_limits<double>::infinity(), 0.0};
    const bool trace_on = options_.collect_trace;
    for (std::size_t k = 0; k < records.size(); ++k) {
        wave_record& rec = records[k];
        const std::uint32_t par = k & 1;
        if (options_.non_pipelined && k > 0) {
            rec.release_time = records[k - 1].output_stable;
            rec.plain_release_time = records[k - 1].plain_output_stable;
        }
        const time2 release = {rec.plain_release_time, rec.release_time};
        time2 input_stable = {0.0, 0.0};
        time2 output_stable = {0.0, 0.0};
        std::uint64_t hits = 0;
        std::uint64_t wins = 0;
        std::uint64_t masters = 0;
        wave_base_ = stats_.events;
        std::uint32_t stop = next_stop(0);
        for (std::uint32_t s = 0; s < n; ++s) {
            const gate_rec& d = recs[s];
            const in_ref* const r = refs + d.ref_begin;
            std::uint32_t minterm = 0;
            time2 t = {0.0, 0.0};
            for (std::uint32_t pin = 0; pin < d.num_data; ++pin) {
                const in_ref x = r[pin] ^ par;
                minterm |= static_cast<std::uint32_t>(values[x] & 1u) << pin;
                t = max2(t, times[x]);
            }
            const time2 t_data = t;
            for (std::uint32_t i = d.num_data; i < d.ref_end - d.ref_begin; ++i) {
                t = max2(t, times[r[i] ^ par]);
            }
            std::uint64_t value =
                (pool[d.fn_off + (minterm >> 6)] >> (minterm & 63)) & 1u;
            time2 t_out = t + d.delay;
            time2 t_ack = t + ack_delay;
            switch (d.kind) {
                case role::gate:
                    if ((d.live & k_trigger) != 0) t_out[0] = t_ack[0] = 0.0;
                    break;
                case role::master: {
                    // Normal completion pays the extra C-element; a 1-valued
                    // efire token opens the output latch early.  The plain
                    // plane keeps t_ready + gate_delay.  A 0-valued token
                    // adds +inf to the early time, so the select is a min.
                    const in_ref x = d.efire ^ par;
                    const std::uint64_t efire = values[x] & 1u;
                    const double normal = t_data[1] + gate_delay + ee_penalty;
                    const double early = times[x][1] + efire_delay + k_closed[efire];
                    const std::uint64_t win = early < normal ? 1u : 0u;
                    t_out[1] = early < normal ? early : normal;
                    hits += efire;
                    wins += win;
                    ++masters;
                    break;
                }
                case role::source:
                    t_out = max2(t, release) + d.delay;
                    t_ack = t_out;
                    value = stim_bit(k, d.env_slot);
                    input_stable = max2(input_stable, t_out);
                    break;
                case role::sink:
                    rec.outputs[d.env_slot] = (minterm & 1u) != 0;
                    output_stable = max2(output_stable, t_data);
                    break;
            }
            times[4 * s + par] = t_out;
            times[4 * s + 2 + par] = t_ack;
            values[4 * s + par] = value;
            if (trace_on) {
                for (std::uint32_t i = trace_off_[s]; i < trace_off_[s + 1]; ++i) {
                    trace_.push_back({t_out[1], trace_edges_[i], value != 0});
                }
            }
            if (s == stop) stop = reach(s, "dataflow");
        }
        stats_.events = wave_base_ + deposits_[n];
        stats_.firings += n;
        stats_.ee_hits += hits;
        stats_.ee_misses += masters - hits;
        stats_.ee_wins += wins;
        rec.input_stable = input_stable[1];
        rec.output_stable = output_stable[1];
        rec.plain_input_stable = input_stable[0];
        rec.plain_output_stable = output_stable[0];
        waves_stable_ = k + 1;
    }
}

// ---------------------------------------------------------------------------
// Lanes: the schedule's single wave over 64-bit value words.
//
// Values are timing-independent, so the words are right for every lane;
// times stay one shared scalar per slot except on the divergent cone of an
// EE master whose mixed efire word lets some lanes take the early path.
// Such a slot holds a 64-double slab instead, flagged in varies_; times
// that reconverge (a max absorbed the early token) drop back to a scalar.
// The flag and the slab are the EE plane's: the plain plane has no master,
// so its time is one scalar per slot for every lane.
// ---------------------------------------------------------------------------

std::vector<lane_block_result> pl_simulator::run_lanes(
    const std::vector<stimulus_block>& blocks) {
    for (const stimulus_block& block : blocks) {
        if (block.width != pl_.sources().size()) {
            throw std::invalid_argument("pl_simulator::run_lanes: width mismatch");
        }
        if (block.num_vectors == 0 || block.num_vectors > k_lanes) {
            throw std::invalid_argument(
                "pl_simulator::run_lanes: every block must hold 1..64 vectors");
        }
    }
    if (pl_.sinks().empty()) {
        throw std::invalid_argument(
            "pl_simulator::run_lanes: netlist has no outputs");
    }
    if (options_.collect_trace) {
        throw std::invalid_argument(
            "pl_simulator::run_lanes: waveform tracing requires the scalar "
            "protocol (lane tokens have no single trace value)");
    }

    begin_run();
    if (!slab_pool_) {
        // One slab per parity-0 slot; uninitialized, since varies_ gates
        // every read.
        slab_pool_ = std::make_unique_for_overwrite<time2[]>(recs_.size() * k_lanes);
        varies_.assign(times_.size(), 0);
        std::uint32_t max_refs = 0;
        for (const gate_rec& d : recs_) max_refs = std::max(max_refs, d.ref_end - d.ref_begin);
        lane_slabs_.resize(max_refs);
    }
    std::vector<lane_block_result> results(blocks.size());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        run_lane_wave(blocks[b], results[b]);
        waves_stable_ = b + 1;
    }
    plain_stats_.events = blocks.size() * plain_events_;
    plain_stats_.firings = blocks.size() * plain_firings_;
    plain_stats_.lane_blocks = stats_.lane_blocks;
    plain_stats_.lane_vectors = stats_.lane_vectors;
    return results;
}

/// The lane wave writes parity 0 and reads each ref itself, so a marked ref
/// reads the wave -1 preset in parity 1, which no lane wave overwrites.
/// Environment firings whose inputs are all scalar keep one input_stable
/// and one output_stable maximum, folded into the per-lane arrays after the
/// wave; max is exact, so the order does not change a bit.
void pl_simulator::run_lane_wave(const stimulus_block& block, lane_block_result& out) {
    const std::uint32_t n = static_cast<std::uint32_t>(recs_.size());
    const delay_model& dm = options_.delays;
    const double ack_delay = dm.ack_delay();
    const time2** const slabs = lane_slabs_.data();
    lane_mask_ = block.lane_mask();
    out.num_vectors = block.num_vectors;
    out.outputs.assign(pl_.sinks().size(), 0);
    time2 input_stable = {0.0, 0.0};
    time2 output_stable = {0.0, 0.0};
    wave_base_ = stats_.events;
    std::uint32_t stop = next_stop(0);
    for (std::uint32_t s = 0; s < n; ++s) {
        const gate_rec& d = recs_[s];
        const in_ref* const r = refs_.data() + d.ref_begin;
        const std::uint32_t num_refs = d.ref_end - d.ref_begin;
        // One pass over the refs: both planes' maxes, in which a slab's EE
        // time reads 0.0, and the slabs, the data pins' first.
        time2 t = {0.0, 0.0};
        std::uint32_t num_slabs = 0;
        const auto read = [&](in_ref x) {
            t = max2(t, times_[x]);
            slabs[num_slabs] = slab_at(x);
            num_slabs += varies_[x];
        };
        for (std::uint32_t i = 0; i < d.num_data; ++i) read(r[i]);
        const time2 t_data = t;
        const std::uint32_t data_slabs = num_slabs;
        for (std::uint32_t i = d.num_data; i < num_refs; ++i) read(r[i]);
        std::uint64_t value = 0;
        if (d.kind == role::source) {
            value = block.words[d.env_slot];
        } else if (d.kind == role::sink) {
            out.outputs[d.env_slot] = values_[r[0]] & lane_mask_;
        } else {
            std::uint64_t ins[bf::k_max_vars];
            lane_operands(d, ins);
            value = bf::truth_table::eval_word_lanes(fn_pool_.data() + d.fn_off,
                                                     d.num_data, ins);
        }
        values_[4 * s] = value;
        time2 t_ack = t + ack_delay;
        time2 t_out = t + d.delay;
        if ((d.live & k_trigger) != 0) t_out[0] = t_ack[0] = 0.0;
        bool split = num_slabs != 0;
        if (d.kind == role::master) {
            const std::uint64_t efire_word = values_[d.efire];
            const std::uint64_t hit = efire_word & lane_mask_;
            stats_.ee_hits += static_cast<std::uint64_t>(std::popcount(hit));
            stats_.ee_misses +=
                static_cast<std::uint64_t>(std::popcount(lane_mask_ & ~efire_word));
            const double normal = t_data[1] + dm.gate_delay() + dm.d_ee_penalty;
            const double early = times_[d.efire][1] + dm.efire_delay();
            // The lanes disagree on which output path wins: per-lane times.
            split = split || (hit != 0 && hit != lane_mask_ && early < normal);
            if (!split && early < normal) {
                stats_.ee_wins += static_cast<std::uint64_t>(std::popcount(hit));
            }
            // With early >= normal every lane's t_out is `normal` whatever
            // its efire bit, so a mixed word stays whole.
            t_out[1] = hit == lane_mask_ ? std::min(early, normal) : normal;
        }
        if (split) {
            switch (d.kind) {
                case role::gate:
                    fire_lanes_slab<role::gate>(s, t, t_data, data_slabs, num_slabs, out);
                    break;
                case role::master:
                    fire_lanes_slab<role::master>(s, t, t_data, data_slabs, num_slabs, out);
                    break;
                case role::source:
                    fire_lanes_slab<role::source>(s, t, t_data, data_slabs, num_slabs, out);
                    break;
                case role::sink:
                    fire_lanes_slab<role::sink>(s, t, t_data, data_slabs, num_slabs, out);
                    break;
            }
        } else {
            // Every input carries one time for all lanes: the scalar
            // arithmetic of run_waves, on value words.
            if (d.kind == role::source) {
                // Every lane is a run from reset: released at time 0.
                t_ack = t_out;
                input_stable = max2(input_stable, t_out);
            } else if (d.kind == role::sink) {
                output_stable = max2(output_stable, t_data);
            }
            times_[4 * s] = t_out;
            times_[4 * s + 2] = t_ack;
            varies_[4 * s] = varies_[4 * s + 2] = 0;
        }
        if (s == stop) stop = reach(s, "lane");
    }
    for (std::size_t l = 0; l < k_lanes; ++l) {
        const bool occupied = l < block.num_vectors;
        out.input_stable[l] =
            occupied ? std::max(out.input_stable[l], input_stable[1]) : 0.0;
        out.output_stable[l] =
            occupied ? std::max(out.output_stable[l], output_stable[1]) : 0.0;
    }
    out.plain_input_stable = std::max(out.plain_input_stable, input_stable[0]);
    out.plain_output_stable = std::max(out.plain_output_stable, output_stable[0]);
    stats_.events = wave_base_ + deposits_[n];
    stats_.firings += n;
    ++stats_.lane_blocks;
    stats_.lane_vectors += block.num_vectors;
}

/// The EE plane per lane, eight lanes (four time2) at a time; the plain
/// plane, which never varies, is t's and t_data's scalar.  One instance per
/// role, so the chunk loop tests no role.
template <pl_simulator::role K>
void pl_simulator::fire_lanes_slab(std::uint32_t s, time2 t, time2 t_data,
                                   std::uint32_t data_slabs, std::uint32_t num_slabs,
                                   lane_block_result& out) {
    using mask2 = decltype(time2{} < time2{});
    constexpr double inf = std::numeric_limits<double>::infinity();
    // Added to a pair of lanes' early times, indexed by the pair's hit
    // bits: +inf keeps a lane whose efire token is 0, or that is empty, on
    // its normal path, and + 0.0 changes no time.
    static constexpr time2 k_closed[4] = {{inf, inf}, {0.0, inf}, {inf, 0.0}, {0.0, 0.0}};
    const gate_rec& d = recs_[s];
    const delay_model& dm = options_.delays;
    const time2* const* const in = lane_slabs_.data();
    const std::uint64_t hit = K == role::master ? values_[d.efire] & lane_mask_ : 0;
    const time2* const efire =
        K == role::master && varies_[d.efire] != 0 ? slab_at(d.efire) : nullptr;
    const double efire_time = K == role::master ? times_[d.efire][1] : 0.0;
    // A dead slot's slab is never read, so it is not written.
    time2* const to = (d.live & k_data_live) != 0 ? slab_at(4 * s) : nullptr;
    time2* const ta = (d.live & k_ack_live) != 0 ? slab_at(4 * s + 2) : nullptr;
    // Mins and maxes over all 64 lanes: a time's lanes agree when its min is
    // its max.  Adding a delay rounds monotonically, so t_ready's give those
    // of every time but a master's output.
    time2 lo_r = {inf, inf};
    time2 hi_r = {-inf, -inf};
    time2 lo_o = lo_r;
    time2 hi_o = hi_r;
    mask2 wins = {0, 0};
    for (std::size_t k = 0; k < k_lanes / 2; k += 4) {
        time2 data[4];
        time2 ready[4];
        time2 o[4];
        for (std::size_t j = 0; j < 4; ++j) data[j] = time2{t_data[1], t_data[1]};
        for (std::uint32_t i = 0; i < data_slabs; ++i) {
            for (std::size_t j = 0; j < 4; ++j) data[j] = max2(data[j], in[i][k + j]);
        }
        for (std::size_t j = 0; j < 4; ++j) ready[j] = max2(data[j], time2{t[1], t[1]});
        for (std::uint32_t i = data_slabs; i < num_slabs; ++i) {
            for (std::size_t j = 0; j < 4; ++j) ready[j] = max2(ready[j], in[i][k + j]);
        }
        for (std::size_t j = 0; j < 4; ++j) {
            lo_r = min2(lo_r, ready[j]);
            hi_r = max2(hi_r, ready[j]);
            o[j] = ready[j] + d.delay;
            if constexpr (K == role::master) {
                const time2 normal = data[j] + dm.gate_delay() + dm.d_ee_penalty;
                const time2 early =
                    (efire != nullptr ? efire[k + j] : time2{efire_time, efire_time}) +
                    dm.efire_delay() + k_closed[(hit >> (2 * (k + j))) & 3];
                const mask2 win = early < normal;
                wins -= win;
                o[j] = win ? early : normal;
                lo_o = min2(lo_o, o[j]);
                hi_o = max2(hi_o, o[j]);
            }
        }
        if (to != nullptr) {
            for (std::size_t j = 0; j < 4; ++j) to[k + j] = o[j];
        }
        if (ta != nullptr) {
            for (std::size_t j = 0; j < 4; ++j) {
                ta[k + j] = K == role::source ? o[j] : ready[j] + dm.ack_delay();
            }
        }
        if constexpr (K == role::source) {
            for (std::size_t l = 0; l < 8; ++l) {
                double& x = out.input_stable[2 * k + l];
                x = std::max(x, o[l / 2][l % 2]);
            }
        } else if constexpr (K == role::sink) {
            for (std::size_t l = 0; l < 8; ++l) {
                double& x = out.output_stable[2 * k + l];
                x = std::max(x, data[l / 2][l % 2]);
            }
        }
    }
    const auto low = [](time2 x) { return x[1] < x[0] ? x[1] : x[0]; };
    const auto high = [](time2 x) { return x[0] < x[1] ? x[1] : x[0]; };
    const double o_lo = K == role::master ? low(lo_o) : low(lo_r) + d.delay;
    const double o_hi = K == role::master ? high(hi_o) : high(hi_r) + d.delay;
    const double a_lo = K == role::source ? o_lo : low(lo_r) + dm.ack_delay();
    const double a_hi = K == role::source ? o_hi : high(hi_r) + dm.ack_delay();
    const bool in_plain = (d.live & k_trigger) == 0;
    const double plain_out = in_plain ? t[0] + d.delay : 0.0;
    const double plain_ack =
        K == role::source ? plain_out : in_plain ? t[0] + dm.ack_delay() : 0.0;
    if constexpr (K == role::source) {
        out.plain_input_stable = std::max(out.plain_input_stable, plain_out);
    } else if constexpr (K == role::sink) {
        out.plain_output_stable = std::max(out.plain_output_stable, t_data[0]);
    } else if constexpr (K == role::master) {
        const auto won = static_cast<std::uint64_t>(wins[0] + wins[1]);
        stats_.ee_wins += won;
        if (won != 0 && hit != lane_mask_) ++stats_.lane_splits;
    }
    // A slot whose lanes agree stores its scalar; a slab no unmarked ref
    // reads (a dead slot, see gate_rec::live) only counts its deposits.
    const auto settle = [&](std::uint32_t slot, double lo, double hi, double plain,
                            std::uint32_t outs, bool live) {
        if (lo != hi) stats_.lane_slab_deposits += outs;
        varies_[slot] = lo != hi && live;
        times_[slot] = time2{plain, varies_[slot] != 0 ? 0.0 : lo};
    };
    settle(4 * s, o_lo, o_hi, plain_out, data_outs(s), to != nullptr);
    settle(4 * s + 2, a_lo, a_hi, plain_ack, ack_outs(s), ta != nullptr);
}

}  // namespace plee::sim
