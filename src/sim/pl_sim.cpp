#include "sim/pl_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "fault/injector.hpp"
#include "sim/errors.hpp"

namespace plee::sim {

pl_simulator::pl_simulator(const pl::pl_netlist& pl, sim_options options)
    : pl_(pl), options_(options), topo_(pl) {
    const std::size_t num_gates = pl.num_gates();
    desc_.resize(num_gates);
    in_count_.resize(num_gates);
    for (pl::gate_id g = 0; g < num_gates; ++g) {
        const pl::pl_gate& gate = pl.gate(g);
        gate_desc& d = desc_[g];
        d.kind = gate.kind;
        d.num_data = static_cast<std::uint8_t>(gate.data_in.size());
        d.const_value = gate.const_value;
        d.in_begin = topo_.in_off[g];
        d.in_end = topo_.in_off[g + 1];
        d.data_begin = topo_.data_off[g];
        d.out_begin = topo_.out_off[g];
        d.out_end = topo_.out_off[g + 1];
        d.efire_in = gate.efire_in;
        d.fn_bits = gate.function.words();
        in_count_[g] = d.in_end - d.in_begin;
        if (gate.trigger != pl::k_invalid_gate) {
            // Master of an EE pair: bake the trigger function and its
            // pin-packing map in, so neither engine allocates at fire time.
            const pl::pl_gate& trig = pl.gate(gate.trigger);
            d.trig_fn_bits = trig.function.words();
            std::uint8_t count = 0;
            for (std::uint8_t v = 0; v < 32; ++v) {
                if ((trig.trigger_support >> v) & 1u) {
                    if (count >= sizeof(d.trig_pins)) {
                        throw std::logic_error(
                            "pl_simulator: trigger support wider than the "
                            "LUT pin limit");
                    }
                    d.trig_pins[count++] = v;
                }
            }
            d.trig_pin_count = count;
        }
    }
    for (std::size_t i = 0; i < pl.sources().size(); ++i) {
        desc_[pl.sources()[i]].env_slot = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = 0; i < pl.sinks().size(); ++i) {
        desc_[pl.sinks()[i]].env_slot = static_cast<std::uint32_t>(i);
    }
}

void pl_simulator::throw_occupied(pl::edge_id edge, const char* engine) const {
    throw invariant_violation("token deposited onto an occupied edge " +
                                  std::to_string(edge) +
                                  " (marked-graph safety violation)",
                              options_.label, stats_.events, engine);
}

void pl_simulator::throw_ee_mismatch(const char* engine) const {
    throw invariant_violation(
        "efire token disagrees with the trigger function (EE invariant "
        "violated)",
        options_.label, stats_.events, engine);
}

/// The event checks every engine shares: the max_events budget, and once
/// per k_cancel_check_events events the cancel poll, the sim.fire fault
/// point and the progress beat.  Engines call it out of line, only when the
/// count passes the budget or lands on a check boundary.
void pl_simulator::check_events(std::uint64_t events, const char* engine) {
    if (events > options_.max_events) {
        throw budget_exhausted(options_.label, events, engine);
    }
    if (options_.cancel != nullptr && options_.cancel->expired()) {
        throw job_timeout("sim.events", options_.label, events);
    }
    fault::injector::instance().check("sim.fire", events);
    if (options_.recorder != nullptr) {
        options_.recorder->record("sim.progress", events, waves_stable_);
    }
}

void pl_simulator::reset() {
    stats_ = {};
    trace_on_ = options_.collect_trace;
    trace_.clear();
    pending_ = in_count_;
    fired_waves_.assign(pl_.num_gates(), 0);
    tok_present_.assign((pl_.num_edges() + 63) / 64, 0);
    worklist_.clear();
}

/// Fires every gate the initial marking enables, then every gate a firing
/// enables, until none is left.  The wave-horizon cap in the firing
/// functions bounds the firings, so the worklist always empties.
template <bool Lanes>
void pl_simulator::run_worklist() {
    const auto fire = [this](pl::gate_id g) {
        if constexpr (Lanes) {
            try_fire_lanes(g);
        } else {
            try_fire_fast(g);
        }
    };
    for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
        if (pending_[g] == 0 && in_count_[g] != 0) fire(g);
        // Sources with no acknowledge inputs (no consumers needing them) are
        // enabled with zero in-edges.
        if (pending_[g] == 0 && in_count_[g] == 0 &&
            desc_[g].kind == pl::gate_kind::source &&
            desc_[g].out_end != desc_[g].out_begin) {
            fire(g);
        }
    }
    while (!worklist_.empty()) {
        const pl::gate_id g = worklist_.back();
        worklist_.pop_back();
        fire(g);
    }
}

// ---------------------------------------------------------------------------
// Dataflow engine: SoA tokens and CSR adjacency, no event queue.
//
// A PL circuit is a live, safe marked graph, and under the Figure 1/2 delay
// model every token time is a max/min recurrence over the times of the
// tokens its producing firing consumed.  With firings capped at the wave
// horizon, the set of firings is the same in any enabling order, so nothing
// needs replaying in time order: a firing writes each output token directly
// (present bit, value, time) and a consumer whose last missing input just
// arrived goes onto a LIFO worklist.  One deposit is one event, exactly as
// one popped deposit is in a time-ordered simulation, so every stat matches
// one (tests/heap_oracle.hpp).
// ---------------------------------------------------------------------------

/// One deposit = one event: the event checks, the occupied-edge safety
/// check, the token write and the consumer's enabling.
void pl_simulator::deposit_token(pl::edge_id edge, bool value, double time) {
    count_event("dataflow");
    const std::size_t word = edge >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (edge & 63);
    const std::uint64_t present = tok_present_[word];
    if (present & bit) throw_occupied(edge, "dataflow");
    tok_present_[word] = present | bit;
    tok_value_[word] = value ? tok_value_[word] | bit : tok_value_[word] & ~bit;
    tok_time_[edge] = time;
    if (trace_on_ && !topo_.edge_is_ack[edge]) {
        trace_.push_back({time, edge, value});
    }
    const pl::gate_id g = topo_.edge_to[edge];
    if (--pending_[g] == 0) worklist_.push_back(g);
}

void pl_simulator::fire_source_fast(pl::gate_id g) {
    const gate_desc& d = desc_[g];
    // A source with acknowledge inputs fires once per enabling; a source with
    // no feedback constraints (all its acks were shared away, or it is being
    // abused in a hand-built netlist) free-runs through every released wave —
    // which is exactly how an over-eager environment overruns an unsafe
    // design, and the dynamic safety check then reports it.
    while (pending_[g] == 0) {
        const std::size_t wave = fired_waves_[g];
        if (wave >= num_waves_ || wave >= released_waves_) return;

        double t_ready = release_time_[wave];
        for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
            const pl::edge_id e = topo_.in_flat[i];
            t_ready = std::max(t_ready, tok_time_[e]);
            tok_present_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
        }
        pending_[g] = in_count_[g];
        ++fired_waves_[g];
        ++stats_.firings;

        const bool value = stim_bit(wave, d.env_slot);
        const double t_out = t_ready + options_.delays.d_source;
        input_stable_[wave] = std::max(input_stable_[wave], t_out);
        for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
            deposit_token(topo_.out_flat[i], value, t_out);
        }
    }
}

void pl_simulator::record_sink_fast(pl::gate_id g) {
    const gate_desc& d = desc_[g];
    const pl::edge_id data_edge = topo_.data_flat[d.data_begin];
    const bool tok_val = token_value(data_edge);
    const double tok_time = tok_time_[data_edge];
    const std::size_t wave = fired_waves_[g];

    double t_ready = tok_time;
    for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
        const pl::edge_id e = topo_.in_flat[i];
        t_ready = std::max(t_ready, tok_time_[e]);
        tok_present_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
    }
    pending_[g] = in_count_[g];
    ++fired_waves_[g];
    ++stats_.firings;

    const double t_ack = t_ready + options_.delays.ack_delay();
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        deposit_token(topo_.out_flat[i], false, t_ack);
    }

    if (wave >= num_waves_) return;  // drain beyond the measured horizon
    wave_outputs_[wave][d.env_slot] = tok_val;
    output_stable_[wave] = std::max(output_stable_[wave], tok_time);
    if (--sinks_pending_[wave] == 0) {
        ++waves_stable_;
        if (options_.non_pipelined && wave + 1 < num_waves_) {
            release_time_[wave + 1] = output_stable_[wave];
            ++released_waves_;
            for (pl::gate_id src : pl_.sources()) {
                if (pending_[src] == 0) fire_source_fast(src);
            }
        }
    }
}

void pl_simulator::try_fire_fast(pl::gate_id g) {
    if (pending_[g] != 0) return;
    // Wave horizon: a live marked graph fires every gate exactly once per
    // wave, so an enabling past num_waves_ firings is post-completion drain
    // (tokens circulating a feedback loop after the last sink recorded).
    // Refusing it makes firings, events, and the EE hit/miss/win counters
    // order-independent — identical across firing orders and engines —
    // instead of depending on the race between loop circulation and the
    // final sink record.
    if (fired_waves_[g] >= num_waves_) return;
    const gate_desc& d = desc_[g];

    switch (d.kind) {
        case pl::gate_kind::source:
            fire_source_fast(g);
            return;
        case pl::gate_kind::sink:
            record_sink_fast(g);
            return;
        default:
            break;
    }

    // Readiness + consume in one pass, then LUT operands, then emit
    // (clearing presence leaves values and times intact).
    const pl::edge_id* const in_flat = topo_.in_flat.data();
    const double* const tok_time = tok_time_.data();
    double t_ready = 0.0;
    for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
        const pl::edge_id e = in_flat[i];
        t_ready = std::max(t_ready, tok_time[e]);
        tok_present_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
    }
    const pl::edge_id* const data_flat = topo_.data_flat.data() + d.data_begin;
    std::uint32_t minterm = 0;
    double t_data = 0.0;
    for (std::uint8_t pin = 0; pin < d.num_data; ++pin) {
        const pl::edge_id e = data_flat[pin];
        minterm |= static_cast<std::uint32_t>(token_value(e)) << pin;
        t_data = std::max(t_data, tok_time[e]);
    }
    const bool has_trigger = d.efire_in != pl::k_invalid_edge;
    double efire_time = 0.0;
    bool efire_value = false;
    if (has_trigger) {
        efire_time = tok_time[d.efire_in];
        efire_value = token_value(d.efire_in);
    }

    pending_[g] = in_count_[g];
    ++fired_waves_[g];
    ++stats_.firings;

    bool value = false;
    double t_out = 0.0;
    switch (d.kind) {
        case pl::gate_kind::const_source:
            value = d.const_value;
            t_out = t_ready + options_.delays.d_source;
            break;
        case pl::gate_kind::through:
            value = (minterm & 1u) != 0;  // identity on the D token
            t_out = t_ready + options_.delays.through_delay();
            break;
        case pl::gate_kind::trigger:
            value = (d.fn_bits[minterm >> 6] >> (minterm & 63)) & 1u;
            t_out = t_ready + options_.delays.gate_delay();
            break;
        case pl::gate_kind::compute: {
            value = (d.fn_bits[minterm >> 6] >> (minterm & 63)) & 1u;
            if (!has_trigger) {
                t_out = t_ready + options_.delays.gate_delay();
                break;
            }
            // EE master: normal completion pays the extra C-element; a
            // 1-valued efire token opens the output latch early.
            const double normal =
                t_data + options_.delays.gate_delay() + options_.delays.d_ee_penalty;
            if (efire_value) {
                const double early = efire_time + options_.delays.efire_delay();
                t_out = std::min(early, normal);
                ++stats_.ee_hits;
                if (early < normal) ++stats_.ee_wins;
            } else {
                t_out = normal;
                ++stats_.ee_misses;
            }
            // The EE invariant: the trigger recomputed from the master's
            // consumed operands through the precomputed pin-packing map
            // must equal the efire token.
            std::uint32_t packed = 0;
            for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
                packed |= ((minterm >> d.trig_pins[i]) & 1u) << i;
            }
            const bool trig_value =
                (d.trig_fn_bits[packed >> 6] >> (packed & 63)) & 1u;
            if (trig_value != efire_value) throw_ee_mismatch("dataflow");
            break;
        }
        default:
            throw invariant_violation("unexpected gate kind in firing",
                                      options_.label, stats_.events, "dataflow");
    }

    const double t_ack = t_ready + options_.delays.ack_delay();
    const pl::edge_id* const out_flat = topo_.out_flat.data();
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        const pl::edge_id e = out_flat[i];
        deposit_token(e, value, topo_.edge_is_ack[e] ? t_ack : t_out);
    }
}

// ---------------------------------------------------------------------------
// Sequential-wave driver.
// ---------------------------------------------------------------------------

std::vector<wave_record> pl_simulator::run(
    const std::vector<std::vector<bool>>& vectors) {
    for (const auto& v : vectors) {
        if (v.size() != pl_.sources().size()) {
            throw std::invalid_argument("pl_simulator::run: vector width mismatch");
        }
    }
    // Transpose into the packed layout the engine reads from.
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

    reset();
    stim_ = blocks.data();
    num_waves_ = count;
    released_waves_ = options_.non_pipelined ? 1 : num_waves_;
    release_time_.assign(num_waves_, 0.0);
    input_stable_.assign(num_waves_, 0.0);
    output_stable_.assign(num_waves_, 0.0);
    sinks_pending_.assign(num_waves_, pl_.sinks().size());
    waves_stable_ = 0;
    wave_outputs_.assign(num_waves_, std::vector<bool>(pl_.sinks().size(), false));
    if (options_.collect_trace) {
        // One data token per data edge per wave in the common case.
        trace_.reserve(std::min<std::size_t>(num_waves_ * topo_.num_data_edges,
                                             std::size_t{1} << 20));
    }

    const std::size_t num_edges = pl_.num_edges();
    tok_value_.assign((num_edges + 63) / 64, 0);
    tok_time_.assign(num_edges, 0.0);
    // Initial marking: tokens in place at t = 0.
    for (pl::edge_id e = 0; e < num_edges; ++e) {
        const pl::pl_edge& edge = pl_.edge(e);
        if (edge.init_token) {
            const std::size_t word = e >> 6;
            const std::uint64_t bit = std::uint64_t{1} << (e & 63);
            tok_present_[word] |= bit;
            if (edge.init_value) tok_value_[word] |= bit;
            --pending_[edge.to];
        }
    }
    run_worklist<false>();

    // The trace contract: sorted by (time, edge), one edge's deposits in
    // wave order (the stable sort keeps the engine's per-edge order).
    std::stable_sort(trace_.begin(), trace_.end(),
                     [](const trace_event& a, const trace_event& b) {
                         return a.time != b.time ? a.time < b.time
                                                 : a.edge < b.edge;
                     });
    if (waves_stable_ < num_waves_) {
        throw deadlock_error(options_.label, deadlock_diagnostic(),
                             stats_.events, "dataflow");
    }

    std::vector<wave_record> records;
    records.reserve(num_waves_);
    for (std::size_t w = 0; w < num_waves_; ++w) {
        wave_record rec;
        rec.outputs = wave_outputs_[w];
        rec.release_time = release_time_[w];
        rec.input_stable = input_stable_[w];
        rec.output_stable = output_stable_[w];
        records.push_back(std::move(rec));
    }
    return records;
}

// ---------------------------------------------------------------------------
// Lane engine: 64 independent single-vector runs in one pass.
//
// The dataflow engine's presence bitset, time array and worklist, with a
// 64-bit value word per token (lane_value_) in place of one bit.  Values
// are timing-independent, so the words are right for every lane; times
// stay one shared scalar per edge (tok_time_) except on the divergent cone
// of an EE master whose mixed efire word lets some lanes take the early
// path.  Such edges carry a 64-double slab entry (lane_time_) flagged in
// lane_time_varies_; times that reconverge (a max absorbed the early
// token) drop back to a scalar.  Token times obey the same confluent
// max/min recurrence per lane as values do, so divergence never needs a
// second pass.  Every gate fires at most once per block (the single wave),
// so every edge takes at most one deposit per block and the varies bitset,
// cleared per block, needs no clearing at scalar deposits.
// ---------------------------------------------------------------------------

void pl_simulator::deposit_lanes(pl::edge_id edge, std::uint64_t word,
                                 double time) {
    count_event("lane");
    const std::size_t w = edge >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (edge & 63);
    if (tok_present_[w] & bit) throw_occupied(edge, "lane");
    tok_present_[w] |= bit;
    lane_value_[edge] = word;
    tok_time_[edge] = time;
    const pl::gate_id g = topo_.edge_to[edge];
    if (--pending_[g] == 0) worklist_.push_back(g);
}

void pl_simulator::deposit_lanes_slab(pl::edge_id edge, std::uint64_t word,
                                      const double* times) {
    count_event("lane");
    ++stats_.lane_slab_deposits;
    const std::size_t w = edge >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (edge & 63);
    if (tok_present_[w] & bit) throw_occupied(edge, "lane");
    tok_present_[w] |= bit;
    lane_time_varies_[w] |= bit;
    lane_value_[edge] = word;
    if (lane_time_.empty()) lane_time_.resize(pl_.num_edges() * k_lanes);
    std::copy_n(times, k_lanes, lane_time_.data() + std::size_t{edge} * k_lanes);
    const pl::gate_id g = topo_.edge_to[edge];
    if (--pending_[g] == 0) worklist_.push_back(g);
}

void pl_simulator::gather_times(const pl::edge_id* edges, std::uint32_t begin,
                                std::uint32_t end, double* out) const {
    for (std::uint32_t i = begin; i < end; ++i) {
        const pl::edge_id e = edges[i];
        if (edge_time_varies(e)) {
            const double* const t = lane_time_.data() + std::size_t{e} * k_lanes;
            for (std::size_t l = 0; l < k_lanes; ++l) out[l] = std::max(out[l], t[l]);
        } else {
            const double s = tok_time_[e];
            for (std::size_t l = 0; l < k_lanes; ++l) out[l] = std::max(out[l], s);
        }
    }
}

void pl_simulator::consume_lanes(pl::gate_id g, double* tr) {
    const gate_desc& d = desc_[g];
    gather_times(topo_.in_flat.data(), d.in_begin, d.in_end, tr);
    for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
        const pl::edge_id e = topo_.in_flat[i];
        tok_present_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
    }
    pending_[g] = in_count_[g];
    ++fired_waves_[g];
    ++stats_.firings;
}

void pl_simulator::emit_lanes(const gate_desc& d, std::uint64_t value,
                              const double* to, const double* ta) {
    const bool out_uniform = std::all_of(
        to + 1, to + k_lanes, [to](double t) { return t == to[0]; });
    const bool ack_uniform = std::all_of(
        ta + 1, ta + k_lanes, [ta](double t) { return t == ta[0]; });
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        const pl::edge_id e = topo_.out_flat[i];
        const bool ack = topo_.edge_is_ack[e] != 0;
        const double* const t = ack ? ta : to;
        if (ack ? ack_uniform : out_uniform) {
            deposit_lanes(e, value, t[0]);
        } else {
            deposit_lanes_slab(e, value, t);
        }
    }
}

/// The EE invariant, word-wide for every occupied lane: the trigger
/// recomputed from the master's consumed operands must equal the efire
/// word.  Throws invariant_violation otherwise.
void pl_simulator::check_trigger_lanes(const gate_desc& d,
                                       const std::uint64_t* ins,
                                       std::uint64_t efire_word) const {
    std::uint64_t tins[bf::k_max_vars];
    for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
        tins[i] = ins[d.trig_pins[i]];
    }
    const std::uint64_t trig = bf::truth_table::eval_word_lanes(
        d.trig_fn_bits.data(), d.trig_pin_count, tins);
    if ((trig ^ efire_word) & lane_mask_) throw_ee_mismatch("lane");
}

/// A firing's lane-packed output word (LUT and trigger gates through the
/// word kernel).
std::uint64_t pl_simulator::lane_word(const gate_desc& d,
                                      const std::uint64_t* ins) const {
    switch (d.kind) {
        case pl::gate_kind::const_source:
            return d.const_value ? ~std::uint64_t{0} : 0;
        case pl::gate_kind::through:
            return d.num_data != 0 ? ins[0] : 0;  // identity on the D token
        default:
            return bf::truth_table::eval_word_lanes(d.fn_bits.data(),
                                                    d.num_data, ins);
    }
}

/// t_out - t_ready of a firing without an efire input.
double pl_simulator::fire_delay(const gate_desc& d) const {
    switch (d.kind) {
        case pl::gate_kind::const_source: return options_.delays.d_source;
        case pl::gate_kind::through: return options_.delays.through_delay();
        default: return options_.delays.gate_delay();
    }
}

void pl_simulator::fire_source_lanes(pl::gate_id g) {
    const gate_desc& d = desc_[g];
    double to[k_lanes];
    std::fill_n(to, k_lanes, 0.0);
    consume_lanes(g, to);
    for (std::size_t l = 0; l < k_lanes; ++l) {
        to[l] += options_.delays.d_source;
        input_stable_lane_[l] = std::max(input_stable_lane_[l], to[l]);
    }
    emit_lanes(d, lane_block_->words[d.env_slot], to, to);
}

void pl_simulator::record_sink_lanes(pl::gate_id g) {
    const gate_desc& d = desc_[g];
    const pl::edge_id data_edge = topo_.data_flat[d.data_begin];
    double tv[k_lanes];
    std::fill_n(tv, k_lanes, 0.0);
    gather_times(&data_edge, 0, 1, tv);
    double ta[k_lanes];
    std::copy_n(tv, k_lanes, ta);
    consume_lanes(g, ta);
    for (std::size_t l = 0; l < k_lanes; ++l) {
        ta[l] += options_.delays.ack_delay();
        output_stable_lane_[l] = std::max(output_stable_lane_[l], tv[l]);
    }
    emit_lanes(d, 0, ta, ta);
    lane_sink_words_[d.env_slot] = lane_value_[data_edge];
    if (--sinks_pending_[0] == 0) ++waves_stable_;
}

void pl_simulator::try_fire_lanes(pl::gate_id g) {
    if (pending_[g] != 0) return;
    if (fired_waves_[g] >= num_waves_) return;  // wave horizon (try_fire_fast)
    const gate_desc& d = desc_[g];

    switch (d.kind) {
        case pl::gate_kind::source:
            fire_source_lanes(g);
            return;
        case pl::gate_kind::sink:
            record_sink_lanes(g);
            return;
        default:
            break;
    }

    const pl::edge_id* const in_flat = topo_.in_flat.data();
    for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
        if (edge_time_varies(in_flat[i])) {
            try_fire_lanes_slab(g);
            return;
        }
    }

    // Every input carries one time for all lanes: the scalar arithmetic of
    // the dataflow engine, on value words.
    const double* const tok_time = tok_time_.data();
    double t_ready = 0.0;
    for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
        const pl::edge_id e = in_flat[i];
        t_ready = std::max(t_ready, tok_time[e]);
        tok_present_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
    }
    const pl::edge_id* const data_flat = topo_.data_flat.data() + d.data_begin;
    std::uint64_t ins[bf::k_max_vars];
    double t_data = 0.0;
    for (std::uint8_t pin = 0; pin < d.num_data; ++pin) {
        const pl::edge_id e = data_flat[pin];
        ins[pin] = lane_value_[e];
        t_data = std::max(t_data, tok_time[e]);
    }
    pending_[g] = in_count_[g];
    ++fired_waves_[g];
    ++stats_.firings;

    const std::uint64_t value = lane_word(d, ins);
    const double t_ack = t_ready + options_.delays.ack_delay();
    double t_out = t_ready + fire_delay(d);
    if (d.efire_in != pl::k_invalid_edge) {
        const std::uint64_t efire_word = lane_value_[d.efire_in];
        check_trigger_lanes(d, ins, efire_word);
        const double normal =
            t_data + options_.delays.gate_delay() + options_.delays.d_ee_penalty;
        const double early = tok_time[d.efire_in] + options_.delays.efire_delay();
        const std::uint64_t hit = efire_word & lane_mask_;
        stats_.ee_hits += static_cast<std::uint64_t>(std::popcount(hit));
        stats_.ee_misses += static_cast<std::uint64_t>(
            std::popcount(lane_mask_ & ~efire_word));
        if (early < normal) {
            stats_.ee_wins += static_cast<std::uint64_t>(std::popcount(hit));
        }
        if (hit != 0 && hit != lane_mask_ && early < normal) {
            // The lanes disagree on which output path wins: per-lane times.
            ++stats_.lane_splits;
            double to[k_lanes];
            double ta[k_lanes];
            for (std::size_t l = 0; l < k_lanes; ++l) {
                to[l] = ((hit >> l) & 1u) ? early : normal;
                ta[l] = t_ack;
            }
            emit_lanes(d, value, to, ta);
            return;
        }
        // With early >= normal every lane's t_out is `normal` whatever its
        // efire bit, so a mixed word stays whole.
        t_out = hit == lane_mask_ ? std::min(early, normal) : normal;
    }
    const pl::edge_id* const out_flat = topo_.out_flat.data();
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        const pl::edge_id e = out_flat[i];
        deposit_lanes(e, value, topo_.edge_is_ack[e] ? t_ack : t_out);
    }
}

/// try_fire_lanes for a gate with a slab input: the same firing rule,
/// evaluated per lane.
void pl_simulator::try_fire_lanes_slab(pl::gate_id g) {
    const gate_desc& d = desc_[g];
    const pl::edge_id* const data_flat = topo_.data_flat.data() + d.data_begin;
    double tr[k_lanes];
    std::fill_n(tr, k_lanes, 0.0);
    consume_lanes(g, tr);
    std::uint64_t ins[bf::k_max_vars];
    for (std::uint8_t pin = 0; pin < d.num_data; ++pin) {
        ins[pin] = lane_value_[data_flat[pin]];
    }

    const std::uint64_t value = lane_word(d, ins);
    double to[k_lanes];
    double ta[k_lanes];
    for (std::size_t l = 0; l < k_lanes; ++l) {
        ta[l] = tr[l] + options_.delays.ack_delay();
    }
    if (d.efire_in == pl::k_invalid_edge) {
        const double delay = fire_delay(d);
        for (std::size_t l = 0; l < k_lanes; ++l) to[l] = tr[l] + delay;
        emit_lanes(d, value, to, ta);
        return;
    }

    const std::uint64_t efire_word = lane_value_[d.efire_in];
    check_trigger_lanes(d, ins, efire_word);
    double td[k_lanes];
    std::fill_n(td, k_lanes, 0.0);
    gather_times(data_flat, 0, d.num_data, td);
    double ef[k_lanes];
    std::fill_n(ef, k_lanes, 0.0);
    gather_times(&d.efire_in, 0, 1, ef);
    const std::uint64_t hit = efire_word & lane_mask_;
    std::uint64_t divergent = 0;
    for (std::size_t l = 0; l < k_lanes; ++l) {
        const double normal = td[l] + options_.delays.gate_delay() +
                              options_.delays.d_ee_penalty;
        to[l] = normal;
        if ((hit >> l) & 1u) {
            const double early = ef[l] + options_.delays.efire_delay();
            if (early < normal) {
                to[l] = early;
                divergent |= std::uint64_t{1} << l;
            }
        }
    }
    stats_.ee_hits += static_cast<std::uint64_t>(std::popcount(hit));
    stats_.ee_misses +=
        static_cast<std::uint64_t>(std::popcount(lane_mask_ & ~efire_word));
    stats_.ee_wins += static_cast<std::uint64_t>(std::popcount(divergent));
    if (hit != 0 && hit != lane_mask_ && divergent != 0) ++stats_.lane_splits;
    emit_lanes(d, value, to, ta);
}

lane_block_result pl_simulator::run_lanes(const stimulus_block& block) {
    if (block.width != pl_.sources().size()) {
        throw std::invalid_argument("pl_simulator::run_lanes: width mismatch");
    }
    if (block.num_vectors == 0 || block.num_vectors > k_lanes) {
        throw std::invalid_argument(
            "pl_simulator::run_lanes: block must hold 1..64 vectors");
    }
    if (pl_.sinks().empty()) {
        throw std::invalid_argument(
            "pl_simulator::run_lanes: netlist has no outputs");
    }
    if (options_.collect_trace) {
        throw std::invalid_argument(
            "pl_simulator::run_lanes: waveform tracing requires the scalar "
            "engine (lane tokens have no single trace value)");
    }

    reset();
    stats_.lane_blocks = 1;
    stats_.lane_vectors = block.num_vectors;
    lane_block_ = &block;
    lane_mask_ = block.lane_mask();
    num_waves_ = 1;
    sinks_pending_.assign(1, pl_.sinks().size());
    waves_stable_ = 0;
    lane_sink_words_.assign(pl_.sinks().size(), 0);
    input_stable_lane_.fill(0.0);
    output_stable_lane_.fill(0.0);

    // Values and times are only read off present tokens, so only the
    // initial marking needs writing: values broadcast to every lane (the
    // marking is per-netlist, not per-vector) at t = 0.
    const std::size_t num_edges = pl_.num_edges();
    tok_time_.resize(num_edges);
    lane_value_.resize(num_edges);
    lane_time_varies_.assign((num_edges + 63) / 64, 0);
    for (pl::edge_id e = 0; e < num_edges; ++e) {
        const pl::pl_edge& edge = pl_.edge(e);
        if (edge.init_token) {
            tok_present_[e >> 6] |= std::uint64_t{1} << (e & 63);
            lane_value_[e] = edge.init_value ? ~std::uint64_t{0} : 0;
            tok_time_[e] = 0.0;
            --pending_[edge.to];
        }
    }
    run_worklist<true>();
    lane_block_ = nullptr;
    if (waves_stable_ < num_waves_) {
        throw deadlock_error(options_.label, deadlock_diagnostic(),
                             stats_.events, "lane");
    }

    lane_block_result result;
    result.num_vectors = block.num_vectors;
    result.outputs.resize(lane_sink_words_.size());
    for (std::size_t j = 0; j < lane_sink_words_.size(); ++j) {
        result.outputs[j] = lane_sink_words_[j] & lane_mask_;
    }
    for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
        result.input_stable[lane] = input_stable_lane_[lane];
        result.output_stable[lane] = output_stable_lane_[lane];
    }
    return result;
}

std::string pl_simulator::deadlock_diagnostic() const {
    std::size_t starving = 0;
    pl::gate_id example = pl::k_invalid_gate;
    for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
        if (pending_[g] > 0) {
            ++starving;
            if (example == pl::k_invalid_gate) example = g;
        }
    }
    std::string msg = std::to_string(waves_stable_) + "/" +
                      std::to_string(num_waves_) + " waves stable, " +
                      std::to_string(starving) + " gates waiting";
    if (example != pl::k_invalid_gate) {
        msg += " (first: gate " + std::to_string(example) + " '" +
               pl_.gate(example).name + "' missing " +
               std::to_string(pending_[example]) + " tokens)";
    }
    return msg;
}

}  // namespace plee::sim
