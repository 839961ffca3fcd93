#include "sim/pl_sim.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "fault/injector.hpp"
#include "sim/errors.hpp"

namespace plee::sim {

namespace {

/// Calendar bucket width: the smallest positive delay-model component, so
/// deposits separated by at least one delay land in distinct ticks and
/// same-time deposits share a bucket.  Falls back to 1.0 for an all-zero
/// (degenerate) model.
double bucket_width_for(const delay_model& d) {
    double width = 0.0;
    for (double v : {d.d_celem, d.d_lut, d.d_latch, d.d_ee_penalty, d.d_source}) {
        if (v > 0.0 && (width == 0.0 || v < width)) width = v;
    }
    return width > 0.0 ? width : 1.0;
}

/// Largest single-deposit look-ahead the model can produce (every scheduled
/// time is at most this far past the event that scheduled it) — sizes the
/// calendar's ring window.
double max_delay_for(const delay_model& d) {
    return std::max({d.d_source, d.gate_delay() + d.d_ee_penalty,
                     d.through_delay(), d.ack_delay(), d.efire_delay()});
}

/// Field-by-field stats accumulation for the scalar-fallback path: every
/// counter a run produces is added (maxima for the watermark fields), so
/// nothing is silently dropped when summing per-lane runs into block totals.
void add_run_stats(sim_run_stats& total, const sim_run_stats& s) {
    total.events += s.events;
    total.firings += s.firings;
    total.ee_hits += s.ee_hits;
    total.ee_misses += s.ee_misses;
    total.ee_wins += s.ee_wins;
    total.lane_splits += s.lane_splits;
    total.lane_forks += s.lane_forks;
    total.lane_groups += s.lane_groups;
    total.lane_replays += s.lane_replays;
    total.lane_fork_depth_max =
        std::max(total.lane_fork_depth_max, s.lane_fork_depth_max);
    total.lane_fork_bytes_peak =
        std::max(total.lane_fork_bytes_peak, s.lane_fork_bytes_peak);
}

}  // namespace

const char* to_string(queue_kind kind) {
    switch (kind) {
        case queue_kind::binary_heap: return "heap";
        case queue_kind::calendar: return "calendar";
    }
    return "?";
}

queue_kind queue_kind_from_string(const std::string& name) {
    if (name == "heap" || name == "binary_heap") return queue_kind::binary_heap;
    if (name == "calendar") return queue_kind::calendar;
    throw std::invalid_argument("unknown queue kind: '" + name +
                                "' (expected heap | binary_heap | calendar)");
}

const char* engine_name(queue_kind kind, std::size_t lanes) {
    if (kind == queue_kind::binary_heap) return "heap";
    return lanes == 1 ? "dataflow" : "calendar";
}

const char* to_string(lane_split_policy policy) {
    switch (policy) {
        case lane_split_policy::vector: return "vector";
        case lane_split_policy::fork: return "fork";
        case lane_split_policy::replay: return "replay";
    }
    return "?";
}

lane_split_policy lane_split_policy_from_string(const std::string& name) {
    if (name == "vector") return lane_split_policy::vector;
    if (name == "fork") return lane_split_policy::fork;
    if (name == "replay") return lane_split_policy::replay;
    throw std::invalid_argument("unknown lane split policy: '" + name +
                                "' (expected vector | fork | replay)");
}

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
    for (pl::gate_id g = 0; g < num_gates; ++g) {
        if (desc_[g].efire_in != pl::k_invalid_edge) ++num_masters_;
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
    next_seq_ = 0;
    pending_ = in_count_;
    fired_waves_.assign(pl_.num_gates(), 0);
    fork_depth_counts_.fill(0);
}

// ---------------------------------------------------------------------------
// Reference engine: binary heap over AoS token slots (the seed's hot path).
// ---------------------------------------------------------------------------

void pl_simulator::schedule(pl::edge_id edge, bool value, double time) {
    heap_.push_back({time, next_seq_++, edge, value});
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
}

void pl_simulator::place(pl::edge_id edge, bool value, double time) {
    token_slot& slot = tokens_[edge];
    if (slot.present) throw_occupied(edge, "heap");
    slot = {true, value, time};
    const pl::pl_edge& e = pl_.edge(edge);
    if (options_.collect_trace && e.kind == pl::edge_kind::data) {
        trace_.push_back({time, edge, value});
    }
    if (--pending_[e.to] == 0) try_fire(e.to);
}

void pl_simulator::fire_source(pl::gate_id g) {
    const pl::pl_gate& gate = pl_.gate(g);
    // A source with acknowledge inputs fires once per enabling; a source with
    // no feedback constraints (all its acks were shared away, or it is being
    // abused in a hand-built netlist) free-runs through every released wave —
    // which is exactly how an over-eager environment overruns an unsafe
    // design, and the dynamic safety check then reports it.
    while (pending_[g] == 0) {
        const std::size_t wave = fired_waves_[g];
        if (wave >= num_waves_ || wave >= released_waves_) return;

        double t_ready = release_time_[wave];
        for (pl::edge_id e : gate.in_edges) t_ready = std::max(t_ready, tokens_[e].time);
        for (pl::edge_id e : gate.in_edges) {
            tokens_[e].present = false;
            ++pending_[g];
        }
        ++fired_waves_[g];
        ++stats_.firings;

        const bool value = stim_bit(wave, desc_[g].env_slot);
        const double t_out = t_ready + options_.delays.d_source;
        input_stable_[wave] = std::max(input_stable_[wave], t_out);
        for (pl::edge_id e : gate.out_edges) schedule(e, value, t_out);
    }
}

void pl_simulator::record_sink(pl::gate_id g) {
    const pl::pl_gate& gate = pl_.gate(g);
    const pl::edge_id data_edge = gate.data_in.front();
    const token_slot tok = tokens_[data_edge];
    const std::size_t wave = fired_waves_[g];

    for (pl::edge_id e : gate.in_edges) {
        tokens_[e].present = false;
        ++pending_[g];
    }
    ++fired_waves_[g];
    ++stats_.firings;

    double t_ready = tok.time;
    for (pl::edge_id e : gate.in_edges) t_ready = std::max(t_ready, tokens_[e].time);
    for (pl::edge_id e : gate.out_edges) {
        schedule(e, false, t_ready + options_.delays.ack_delay());
    }

    if (wave >= num_waves_) return;  // drain beyond the measured horizon
    wave_outputs_[wave][desc_[g].env_slot] = tok.value;
    output_stable_[wave] = std::max(output_stable_[wave], tok.time);
    if (--sinks_pending_[wave] == 0) {
        ++waves_stable_;
        if (options_.non_pipelined && wave + 1 < num_waves_) {
            release_time_[wave + 1] = output_stable_[wave];
            ++released_waves_;
            for (pl::gate_id src : pl_.sources()) {
                if (pending_[src] == 0) fire_source(src);
            }
        }
    }
}

void pl_simulator::try_fire(pl::gate_id g) {
    if (pending_[g] != 0) return;
    // Wave horizon: a live marked graph fires every gate exactly once per
    // wave, so an enabling past num_waves_ firings is post-completion drain
    // (tokens circulating a feedback loop after the last sink recorded).
    // Refusing it makes firings, events, and the EE hit/miss/win counters
    // order-independent — identical across queue disciplines and lane
    // policies — instead of depending on the race between loop circulation
    // and the final sink record popping.
    if (fired_waves_[g] >= num_waves_) return;
    const pl::pl_gate& gate = pl_.gate(g);

    switch (gate.kind) {
        case pl::gate_kind::source:
            fire_source(g);
            return;
        case pl::gate_kind::sink:
            record_sink(g);
            return;
        default:
            break;
    }

    // Common firing: compute readiness, consume, emit.
    double t_ready = 0.0;
    for (pl::edge_id e : gate.in_edges) t_ready = std::max(t_ready, tokens_[e].time);

    // Gather the LUT operand values before consuming.
    std::uint32_t minterm = 0;
    for (std::size_t pin = 0; pin < gate.data_in.size(); ++pin) {
        if (tokens_[gate.data_in[pin]].value) minterm |= 1u << pin;
    }
    double efire_time = 0.0;
    bool efire_value = false;
    const bool has_trigger = gate.efire_in != pl::k_invalid_edge;
    if (has_trigger) {
        efire_time = tokens_[gate.efire_in].time;
        efire_value = tokens_[gate.efire_in].value;
    }
    double t_data = 0.0;
    for (pl::edge_id e : gate.data_in) t_data = std::max(t_data, tokens_[e].time);

    for (pl::edge_id e : gate.in_edges) {
        tokens_[e].present = false;
        ++pending_[g];
    }
    ++fired_waves_[g];
    ++stats_.firings;

    bool value = false;
    double t_out = 0.0;
    switch (gate.kind) {
        case pl::gate_kind::const_source:
            value = gate.const_value;
            t_out = t_ready + options_.delays.d_source;
            break;
        case pl::gate_kind::through:
            value = (minterm & 1u) != 0;  // identity on the D token
            t_out = t_ready + options_.delays.through_delay();
            break;
        case pl::gate_kind::trigger:
            value = gate.function.eval(minterm);
            t_out = t_ready + options_.delays.gate_delay();
            break;
        case pl::gate_kind::compute: {
            value = gate.function.eval(minterm);
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
            if (options_.check_early_value) {
                // Recompute the trigger from the master's consumed operands
                // through the precomputed pin-packing map.
                const gate_desc& d = desc_[g];
                std::uint32_t packed = 0;
                for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
                    packed |= ((minterm >> d.trig_pins[i]) & 1u) << i;
                }
                const bool trig_value =
                    (d.trig_fn_bits[packed >> 6] >> (packed & 63)) & 1u;
                if (trig_value != efire_value) {
                    throw invariant_violation(
                        "efire token disagrees with the trigger function (EE "
                        "invariant violated)",
                        options_.label, stats_.events, "heap");
                }
            }
            break;
        }
        default:
            throw invariant_violation("unexpected gate kind in firing",
                                      options_.label, stats_.events, "heap");
    }

    const double t_ack = t_ready + options_.delays.ack_delay();
    for (pl::edge_id e : gate.out_edges) {
        const pl::pl_edge& edge = pl_.edge(e);
        schedule(e, value, edge.kind == pl::edge_kind::ack ? t_ack : t_out);
    }
}

void pl_simulator::run_heap() {
    tokens_.assign(pl_.num_edges(), {});
    heap_.clear();
    // Initial marking: tokens in place at t = 0.
    for (pl::edge_id e = 0; e < pl_.num_edges(); ++e) {
        const pl::pl_edge& edge = pl_.edge(e);
        if (edge.init_token) {
            tokens_[e] = {true, edge.init_value, 0.0};
            --pending_[edge.to];
        }
    }

    // Kick off every gate enabled by the initial marking.
    for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
        if (pending_[g] == 0 && !pl_.gate(g).in_edges.empty()) try_fire(g);
        // Sources with no acknowledge inputs (no consumers needing them) may
        // also be enabled with zero in-edges.
        if (pending_[g] == 0 && pl_.gate(g).in_edges.empty() &&
            pl_.gate(g).kind == pl::gate_kind::source &&
            !pl_.gate(g).out_edges.empty()) {
            try_fire(g);
        }
    }

    // Drain to quiescence: the wave-horizon cap in try_fire bounds the event
    // stream, and popping it fully (rather than stopping at stability) keeps
    // every stat independent of where the last sink record lands in the
    // queue's pop order.
    while (!heap_.empty()) {
        const std::uint64_t events = ++stats_.events;
        if (events > options_.max_events ||
            (events & (k_cancel_check_events - 1)) == 0) {
            check_events(events, "heap");
        }
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
        const deposit d = heap_.back();
        heap_.pop_back();
        place(d.edge, d.value, d.time);
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
// one popped deposit is in the heap engine, so every stat matches it.
// ---------------------------------------------------------------------------

/// One deposit = one event: the event checks, the occupied-edge safety
/// check, the token write and the consumer's enabling.
void pl_simulator::deposit_token(pl::edge_id edge, bool value, double time) {
    const std::uint64_t events = ++stats_.events;
    if (events > options_.max_events ||
        (events & (k_cancel_check_events - 1)) == 0) {
        check_events(events, "dataflow");
    }
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
    if (fired_waves_[g] >= num_waves_) return;  // wave horizon (see try_fire)
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
            if (options_.check_early_value) {
                std::uint32_t packed = 0;
                for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
                    packed |= ((minterm >> d.trig_pins[i]) & 1u) << i;
                }
                const bool trig_value =
                    (d.trig_fn_bits[packed >> 6] >> (packed & 63)) & 1u;
                if (trig_value != efire_value) {
                    throw invariant_violation(
                        "efire token disagrees with the trigger function (EE "
                        "invariant violated)",
                        options_.label, stats_.events, "dataflow");
                }
            }
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

void pl_simulator::run_dataflow() {
    const std::size_t num_edges = pl_.num_edges();
    tok_present_.assign((num_edges + 63) / 64, 0);
    tok_value_.assign((num_edges + 63) / 64, 0);
    tok_time_.assign(num_edges, 0.0);
    worklist_.clear();

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

    // Kick off every gate enabled by the initial marking (same rules as the
    // reference engine, read from the descriptors), then fire enabled gates
    // until none is left.  The wave-horizon cap in try_fire_fast bounds the
    // firings, so the worklist always empties.
    for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
        if (pending_[g] == 0 && in_count_[g] != 0) try_fire_fast(g);
        if (pending_[g] == 0 && in_count_[g] == 0 &&
            desc_[g].kind == pl::gate_kind::source &&
            desc_[g].out_end != desc_[g].out_begin) {
            try_fire_fast(g);
        }
    }
    while (!worklist_.empty()) {
        const pl::gate_id g = worklist_.back();
        worklist_.pop_back();
        try_fire_fast(g);
    }
}

// ---------------------------------------------------------------------------
// Engine-independent driver.
// ---------------------------------------------------------------------------

std::vector<wave_record> pl_simulator::run(
    const std::vector<std::vector<bool>>& vectors) {
    for (const auto& v : vectors) {
        if (v.size() != pl_.sources().size()) {
            throw std::invalid_argument("pl_simulator::run: vector width mismatch");
        }
    }
    // Transpose into the packed layout both engines now read from.
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

    const bool use_heap = options_.queue == queue_kind::binary_heap;
    if (use_heap) {
        run_heap();
    } else {
        run_dataflow();
    }
    // The trace contract: sorted by (time, edge), one edge's deposits in
    // wave order (the stable sort keeps each engine's per-edge order).
    std::stable_sort(trace_.begin(), trace_.end(),
                     [](const trace_event& a, const trace_event& b) {
                         return a.time != b.time ? a.time < b.time
                                                 : a.edge < b.edge;
                     });
    if (waves_stable_ < num_waves_) {
        throw deadlock_error(options_.label, deadlock_diagnostic(),
                             stats_.events, use_heap ? "heap" : "dataflow");
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
// Lane engine: 64 independent single-vector runs through one event stream.
//
// Token state is the dataflow engine's (same presence bitset, same time
// array), but deposits go through a calendar queue (calendar_queue.hpp) in
// the heap engine's (time, seq) pop order.  What changes is the payload —
// every data token carries a 64-bit value word instead of one bit.  The
// cal_event key has no room for a word, so the word rides in a side array
// (lane_sched_) indexed by edge: marked-graph safety guarantees at most one
// deposit in flight per edge, and lane_inflight_ enforces it (an unsafe
// netlist throws here instead of at place time).
// ---------------------------------------------------------------------------

void pl_simulator::schedule_lanes(std::uint64_t tick, double time,
                                  pl::edge_id edge, std::uint64_t word) {
    const std::size_t w = edge >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (edge & 63);
    if (lane_inflight_[w] & bit) {
        throw invariant_violation(
            "two deposits in flight on edge " + std::to_string(edge) +
                " (lane engine requires a safe netlist)",
            options_.label, stats_.events, "lanes");
    }
    lane_inflight_[w] |= bit;
    lane_sched_[edge] = word;
    if (lane_vec_) lane_time_varies_[w] &= ~bit;  // uniform emission
    calendar_.push_at(tick, {time, cal_event::pack(next_seq_++, edge, false)});
}

/// Vector-time emission: the deposit's per-lane times land in the slab, the
/// calendar orders the event by their maximum (any order that respects the
/// firing rule yields the same times — the recurrence is confluent).
void pl_simulator::schedule_lanes_vec(pl::edge_id edge, std::uint64_t word,
                                      const double* times) {
    const std::size_t w = edge >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (edge & 63);
    if (lane_inflight_[w] & bit) {
        throw invariant_violation(
            "two deposits in flight on edge " + std::to_string(edge) +
                " (lane engine requires a safe netlist)",
            options_.label, stats_.events, "lanes");
    }
    lane_inflight_[w] |= bit;
    lane_sched_[edge] = word;
    lane_time_varies_[w] |= bit;
    double* const slot = lane_time_.data() + std::size_t{edge} * k_lanes;
    double rep = 0.0;
    for (std::size_t l = 0; l < k_lanes; ++l) {
        slot[l] = times[l];
        rep = std::max(rep, times[l]);
    }
    calendar_.push_at(calendar_.tick_of(rep),
                      {rep, cal_event::pack(next_seq_++, edge, false)});
}

void pl_simulator::place_lanes(pl::edge_id edge, double time) {
    const std::size_t word = edge >> 6;
    const std::uint64_t bit = std::uint64_t{1} << (edge & 63);
    if (tok_present_[word] & bit) throw_occupied(edge, "lanes");
    tok_present_[word] |= bit;
    lane_inflight_[word] &= ~bit;
    lane_value_[edge] = lane_sched_[edge];
    tok_time_[edge] = time;
    const pl::gate_id g = topo_.edge_to[edge];
    if (--pending_[g] == 0) {
        lane_vec_ ? try_fire_lanes_vec(g) : try_fire_lanes(g);
    }
}

void pl_simulator::fire_source_lanes(pl::gate_id g) {
    const gate_desc& d = desc_[g];
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

        const std::uint64_t word = lane_block_->words[d.env_slot];
        const double t_out = t_ready + options_.delays.d_source;
        input_stable_[wave] = std::max(input_stable_[wave], t_out);
        const std::uint64_t tick = calendar_.tick_of(t_out);
        for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
            schedule_lanes(tick, t_out, topo_.out_flat[i], word);
        }
    }
}

void pl_simulator::record_sink_lanes(pl::gate_id g) {
    const gate_desc& d = desc_[g];
    const pl::edge_id data_edge = topo_.data_flat[d.data_begin];
    const std::uint64_t tok_word = lane_value_[data_edge];
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
    const std::uint64_t tick = calendar_.tick_of(t_ack);
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        schedule_lanes(tick, t_ack, topo_.out_flat[i], 0);
    }

    if (wave >= num_waves_) return;  // drain beyond the measured horizon
    lane_sink_words_[d.env_slot] = tok_word;
    output_stable_[wave] = std::max(output_stable_[wave], tok_time);
    if (--sinks_pending_[wave] == 0) ++waves_stable_;
}

// ---------------------------------------------------------------------------
// Vector-time firing (lane_split_policy::vector).  Identical firing rules to
// the scalar lane path, but a token's arrival time is per-lane wherever the
// EE cone made it diverge: such edges carry a 64-double slab entry
// (lane_time_) flagged in lane_time_varies_, everything else keeps the
// shared scalar in tok_time_.  Marked-graph token times are a max/min
// recurrence over the producing firing's input times, so they are exact and
// order-independent per lane — divergence never needs a split, and times
// that reconverge (the max absorbed the early token) drop back to scalar.
// ---------------------------------------------------------------------------

/// Max-accumulates the [begin, end) edges' per-lane arrival times into
/// out[0..63] (callers pre-fill with the floor, usually 0).
void pl_simulator::gather_times_vec(const pl::edge_id* edges,
                                    std::uint32_t begin, std::uint32_t end,
                                    double* out) const {
    for (std::uint32_t i = begin; i < end; ++i) {
        const pl::edge_id e = edges[i];
        if (edge_time_varies(e)) {
            const double* const t =
                lane_time_.data() + std::size_t{e} * k_lanes;
            for (std::size_t l = 0; l < k_lanes; ++l) {
                out[l] = std::max(out[l], t[l]);
            }
        } else {
            const double s = tok_time_[e];
            for (std::size_t l = 0; l < k_lanes; ++l) {
                out[l] = std::max(out[l], s);
            }
        }
    }
}

void pl_simulator::record_sink_lanes_vec(pl::gate_id g) {
    const gate_desc& d = desc_[g];
    const pl::edge_id data_edge = topo_.data_flat[d.data_begin];
    const std::uint64_t tok_word = lane_value_[data_edge];
    const std::size_t wave = fired_waves_[g];

    double tv[k_lanes];
    if (edge_time_varies(data_edge)) {
        const double* const t =
            lane_time_.data() + std::size_t{data_edge} * k_lanes;
        for (std::size_t l = 0; l < k_lanes; ++l) tv[l] = t[l];
    } else {
        const double s = tok_time_[data_edge];
        for (std::size_t l = 0; l < k_lanes; ++l) tv[l] = s;
    }
    double tr[k_lanes];
    for (std::size_t l = 0; l < k_lanes; ++l) tr[l] = tv[l];
    gather_times_vec(topo_.in_flat.data(), d.in_begin, d.in_end, tr);
    for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
        const pl::edge_id e = topo_.in_flat[i];
        tok_present_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
    }
    pending_[g] = in_count_[g];
    ++fired_waves_[g];
    ++stats_.firings;

    double ta[k_lanes];
    double ta_min = tr[0] + options_.delays.ack_delay();
    double ta_max = ta_min;
    for (std::size_t l = 0; l < k_lanes; ++l) {
        ta[l] = tr[l] + options_.delays.ack_delay();
        ta_min = std::min(ta_min, ta[l]);
        ta_max = std::max(ta_max, ta[l]);
    }
    const bool ack_uniform = ta_min == ta_max;
    const std::uint64_t tick = calendar_.tick_of(ta_max);
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        const pl::edge_id e = topo_.out_flat[i];
        if (ack_uniform) {
            schedule_lanes(tick, ta_max, e, 0);
        } else {
            schedule_lanes_vec(e, 0, ta);
        }
    }

    if (wave >= num_waves_) return;  // drain beyond the measured horizon
    lane_sink_words_[d.env_slot] = tok_word;
    for (std::size_t l = 0; l < k_lanes; ++l) {
        output_stable_lane_[l] = std::max(output_stable_lane_[l], tv[l]);
    }
    if (--sinks_pending_[wave] == 0) ++waves_stable_;
}

void pl_simulator::try_fire_lanes_vec(pl::gate_id g) {
    if (pending_[g] != 0) return;
    if (fired_waves_[g] >= num_waves_) return;  // wave horizon (see try_fire)
    const gate_desc& d = desc_[g];

    switch (d.kind) {
        case pl::gate_kind::source:
            // Sources fire exactly once per released wave from uniform
            // state (stimulus broadcast at t = 0), so the scalar path is
            // exact; late ack arrivals hit its released_waves_ guard.
            fire_source_lanes(g);
            return;
        case pl::gate_kind::sink:
            record_sink_lanes_vec(g);
            return;
        default:
            break;
    }

    const pl::edge_id* const in_flat = topo_.in_flat.data();
    bool vary = false;
    for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
        if (edge_time_varies(in_flat[i])) {
            vary = true;
            break;
        }
    }
    if (!vary) {
        // All inputs share one time per edge: the scalar-input body computes
        // the exact same doubles, and only a divergent EE emission (mixed
        // efire word with the early path faster) widens the output to
        // per-lane times instead of splitting the pass.
        try_fire_lanes_impl<true>(g);
        return;
    }

    const double* const tok_time = tok_time_.data();
    const pl::edge_id* const data_flat = topo_.data_flat.data() + d.data_begin;
    double tr[k_lanes];
    for (std::size_t l = 0; l < k_lanes; ++l) tr[l] = 0.0;
    gather_times_vec(in_flat, d.in_begin, d.in_end, tr);
    for (std::uint32_t i = d.in_begin; i < d.in_end; ++i) {
        const pl::edge_id e = in_flat[i];
        tok_present_[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
    }
    std::uint64_t ins[bf::k_max_vars];
    double td[k_lanes];
    for (std::size_t l = 0; l < k_lanes; ++l) td[l] = 0.0;
    for (std::uint8_t pin = 0; pin < d.num_data; ++pin) {
        ins[pin] = lane_value_[data_flat[pin]];
    }
    const bool has_trigger = d.efire_in != pl::k_invalid_edge;
    std::uint64_t efire_word = 0;
    double ef[k_lanes];
    if (has_trigger) {
        gather_times_vec(data_flat, 0, d.num_data, td);
        efire_word = lane_value_[d.efire_in];
        if (edge_time_varies(d.efire_in)) {
            const double* const t =
                lane_time_.data() + std::size_t{d.efire_in} * k_lanes;
            for (std::size_t l = 0; l < k_lanes; ++l) ef[l] = t[l];
        } else {
            const double s = tok_time[d.efire_in];
            for (std::size_t l = 0; l < k_lanes; ++l) ef[l] = s;
        }
    }

    pending_[g] = in_count_[g];
    ++fired_waves_[g];
    ++stats_.firings;

    std::uint64_t value = 0;
    double to[k_lanes];
    switch (d.kind) {
        case pl::gate_kind::const_source:
            value = d.const_value ? ~std::uint64_t{0} : 0;
            for (std::size_t l = 0; l < k_lanes; ++l) {
                to[l] = tr[l] + options_.delays.d_source;
            }
            break;
        case pl::gate_kind::through:
            value = d.num_data != 0 ? ins[0] : 0;
            for (std::size_t l = 0; l < k_lanes; ++l) {
                to[l] = tr[l] + options_.delays.through_delay();
            }
            break;
        case pl::gate_kind::trigger:
            value = bf::truth_table::eval_word_lanes(d.fn_bits.data(),
                                                     d.num_data, ins);
            for (std::size_t l = 0; l < k_lanes; ++l) {
                to[l] = tr[l] + options_.delays.gate_delay();
            }
            break;
        case pl::gate_kind::compute: {
            value = bf::truth_table::eval_word_lanes(d.fn_bits.data(),
                                                     d.num_data, ins);
            if (!has_trigger) {
                for (std::size_t l = 0; l < k_lanes; ++l) {
                    to[l] = tr[l] + options_.delays.gate_delay();
                }
                break;
            }
            if (options_.check_early_value) {
                std::uint64_t tins[bf::k_max_vars];
                for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
                    tins[i] = ins[d.trig_pins[i]];
                }
                const std::uint64_t trig = bf::truth_table::eval_word_lanes(
                    d.trig_fn_bits.data(), d.trig_pin_count, tins);
                if ((trig ^ efire_word) & lane_mask_) {
                    throw invariant_violation(
                        "efire token disagrees with the trigger function (EE "
                        "invariant violated)",
                        options_.label, stats_.events, "lanes");
                }
            }
            const std::uint64_t hit = efire_word & lane_mask_;
            std::uint64_t divergent = 0;
            for (std::size_t l = 0; l < k_lanes; ++l) {
                const double normal = td[l] + options_.delays.gate_delay() +
                                      options_.delays.d_ee_penalty;
                if ((hit >> l) & 1u) {
                    const double early =
                        ef[l] + options_.delays.efire_delay();
                    to[l] = std::min(early, normal);
                    if (early < normal) {
                        divergent |= std::uint64_t{1} << l;
                    }
                } else {
                    to[l] = normal;
                }
            }
            lane_hits_ += static_cast<std::uint64_t>(std::popcount(hit));
            lane_misses_ += static_cast<std::uint64_t>(
                std::popcount(lane_mask_ & ~efire_word));
            lane_wins_ +=
                static_cast<std::uint64_t>(std::popcount(divergent));
            if (hit != 0 && hit != lane_mask_ && divergent != 0) {
                ++stats_.lane_splits;  // a scalar pass would fork/replay here
            }
            break;
        }
        default:
            throw invariant_violation("unexpected gate kind in firing",
                                      options_.label, stats_.events, "lanes");
    }

    double to_min = to[0];
    double to_max = to[0];
    double ta[k_lanes];
    double ta_min = tr[0] + options_.delays.ack_delay();
    double ta_max = ta_min;
    for (std::size_t l = 0; l < k_lanes; ++l) {
        to_min = std::min(to_min, to[l]);
        to_max = std::max(to_max, to[l]);
        ta[l] = tr[l] + options_.delays.ack_delay();
        ta_min = std::min(ta_min, ta[l]);
        ta_max = std::max(ta_max, ta[l]);
    }
    const bool out_uniform = to_min == to_max;
    const bool ack_uniform = ta_min == ta_max;
    const std::uint64_t tick_out = calendar_.tick_of(to_max);
    const std::uint64_t tick_ack = calendar_.tick_of(ta_max);
    const pl::edge_id* const out_flat = topo_.out_flat.data();
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        const pl::edge_id e = out_flat[i];
        if (topo_.edge_is_ack[e]) {
            if (ack_uniform) {
                schedule_lanes(tick_ack, ta_max, e, value);
            } else {
                schedule_lanes_vec(e, value, ta);
            }
        } else {
            if (out_uniform) {
                schedule_lanes(tick_out, to_max, e, value);
            } else {
                schedule_lanes_vec(e, value, to);
            }
        }
    }
}

/// Shared firing body for the scalar lane path (Vec = false, the fork /
/// replay policies) and the vector path's uniform-input case (Vec = true).
/// The two differ only at a divergent EE master: the scalar path splits the
/// mask (defer_minority), the vector path widens the emission to per-lane
/// times; and the vector path's EE counters are lane-summed popcounts
/// instead of per-pass scalars (its mask never narrows).
template <bool Vec>
void pl_simulator::try_fire_lanes_impl(pl::gate_id g) {
    if (pending_[g] != 0) return;
    if (fired_waves_[g] >= num_waves_) return;  // wave horizon (see try_fire)
    const gate_desc& d = desc_[g];

    switch (d.kind) {
        case pl::gate_kind::source:
            fire_source_lanes(g);
            return;
        case pl::gate_kind::sink:
            if constexpr (Vec) {
                record_sink_lanes_vec(g);
            } else {
                record_sink_lanes(g);
            }
            return;
        default:
            break;
    }

    const pl::edge_id* const in_flat = topo_.in_flat.data();
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
    const bool has_trigger = d.efire_in != pl::k_invalid_edge;
    double efire_time = 0.0;
    std::uint64_t efire_word = 0;
    if (has_trigger) {
        efire_time = tok_time[d.efire_in];
        efire_word = lane_value_[d.efire_in];
    }

    pending_[g] = in_count_[g];
    ++fired_waves_[g];
    ++stats_.firings;

    std::uint64_t value = 0;
    double t_out = 0.0;
    switch (d.kind) {
        case pl::gate_kind::const_source:
            value = d.const_value ? ~std::uint64_t{0} : 0;
            t_out = t_ready + options_.delays.d_source;
            break;
        case pl::gate_kind::through:
            value = d.num_data != 0 ? ins[0] : 0;  // identity on the D token
            t_out = t_ready + options_.delays.through_delay();
            break;
        case pl::gate_kind::trigger:
            value = bf::truth_table::eval_word_lanes(d.fn_bits.data(),
                                                     d.num_data, ins);
            t_out = t_ready + options_.delays.gate_delay();
            break;
        case pl::gate_kind::compute: {
            value = bf::truth_table::eval_word_lanes(d.fn_bits.data(),
                                                     d.num_data, ins);
            if (!has_trigger) {
                t_out = t_ready + options_.delays.gate_delay();
                break;
            }
            if (options_.check_early_value) {
                // Values are timing-independent, so the invariant is checked
                // word-wide for every lane this pass still owns.
                std::uint64_t tins[bf::k_max_vars];
                for (std::uint8_t i = 0; i < d.trig_pin_count; ++i) {
                    tins[i] = ins[d.trig_pins[i]];
                }
                const std::uint64_t trig = bf::truth_table::eval_word_lanes(
                    d.trig_fn_bits.data(), d.trig_pin_count, tins);
                if ((trig ^ efire_word) & lane_mask_) {
                    throw invariant_violation(
                        "efire token disagrees with the trigger function (EE "
                        "invariant violated)",
                        options_.label, stats_.events, "lanes");
                }
            }
            // The only divergence point: a mixed efire word means the lanes
            // disagree on which output path fires.  But the paths only
            // matter when the early one is actually faster — with
            // early >= normal every lane's t_out is `normal` regardless of
            // its efire bit, so the word stays whole and only the per-lane
            // hit/miss accounting differs.  When the timing genuinely
            // diverges, the scalar path keeps the majority in lockstep and
            // checkpoints (fork) or defers (replay) the minority; the
            // vector path emits per-lane times instead and never splits.
            const double normal =
                t_data + options_.delays.gate_delay() + options_.delays.d_ee_penalty;
            const double early = efire_time + options_.delays.efire_delay();
            std::uint64_t hit = efire_word & lane_mask_;
            const bool diverges =
                hit != 0 && hit != lane_mask_ && early < normal;
            if constexpr (Vec) {
                lane_hits_ += static_cast<std::uint64_t>(std::popcount(hit));
                lane_misses_ += static_cast<std::uint64_t>(
                    std::popcount(lane_mask_ & ~efire_word));
                if (early < normal) {
                    lane_wins_ +=
                        static_cast<std::uint64_t>(std::popcount(hit));
                }
                if (diverges) {
                    // A scalar pass would fork/replay here; widen instead.
                    ++stats_.lane_splits;
                    double to[k_lanes];
                    for (std::size_t l = 0; l < k_lanes; ++l) {
                        to[l] = ((hit >> l) & 1u) ? early : normal;
                    }
                    const double t_ack =
                        t_ready + options_.delays.ack_delay();
                    const std::uint64_t tick_ack = calendar_.tick_of(t_ack);
                    const pl::edge_id* const out_flat = topo_.out_flat.data();
                    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
                        const pl::edge_id e = out_flat[i];
                        if (topo_.edge_is_ack[e]) {
                            schedule_lanes(tick_ack, t_ack, e, value);
                        } else {
                            schedule_lanes_vec(e, value, to);
                        }
                    }
                    return;
                }
                t_out = hit == lane_mask_ ? std::min(early, normal) : normal;
            } else {
                if (diverges) {
                    const std::uint64_t miss = lane_mask_ & ~efire_word;
                    const std::uint64_t keep =
                        2 * std::popcount(hit) >= std::popcount(lane_mask_)
                            ? hit
                            : miss;
                    ++stats_.lane_splits;
                    defer_minority(g, lane_mask_ ^ keep, efire_word, value,
                                   t_ready, t_data, efire_time);
                    lane_mask_ = keep;
                    hit = efire_word & lane_mask_;
                }
                if (hit == lane_mask_) {
                    t_out = std::min(early, normal);
                    ++lane_hits_;
                    if (early < normal) ++lane_wins_;
                } else if (hit == 0) {
                    t_out = normal;
                    ++lane_misses_;
                } else {
                    // Mixed, non-diverging: one shared t_out, per-lane
                    // outcome.
                    t_out = normal;
                    for (std::uint64_t w = hit; w != 0; w &= w - 1) {
                        ++lane_mixed_hits_[std::countr_zero(w)];
                    }
                    for (std::uint64_t w = lane_mask_ & ~efire_word; w != 0;
                         w &= w - 1) {
                        ++lane_mixed_misses_[std::countr_zero(w)];
                    }
                }
            }
            break;
        }
        default:
            throw invariant_violation("unexpected gate kind in firing",
                                      options_.label, stats_.events, "lanes");
    }

    const double t_ack = t_ready + options_.delays.ack_delay();
    const std::uint64_t tick_out = calendar_.tick_of(t_out);
    const std::uint64_t tick_ack = calendar_.tick_of(t_ack);
    const pl::edge_id* const out_flat = topo_.out_flat.data();
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        const pl::edge_id e = out_flat[i];
        if (topo_.edge_is_ack[e]) {
            schedule_lanes(tick_ack, t_ack, e, value);
        } else {
            schedule_lanes(tick_out, t_out, e, value);
        }
    }
}

void pl_simulator::try_fire_lanes(pl::gate_id g) {
    try_fire_lanes_impl<false>(g);
}

void pl_simulator::run_lane_pass(std::uint64_t mask, lane_block_result& result) {
    lane_mask_ = mask;
    lane_depth_ = 0;
    lane_hits_ = lane_misses_ = lane_wins_ = 0;
    lane_mixed_hits_.fill(0);
    lane_mixed_misses_.fill(0);
    next_seq_ = 0;
    pending_ = in_count_;
    fired_waves_.assign(pl_.num_gates(), 0);
    num_waves_ = 1;
    released_waves_ = 1;
    release_time_.assign(1, 0.0);
    input_stable_.assign(1, 0.0);
    output_stable_.assign(1, 0.0);
    sinks_pending_.assign(1, pl_.sinks().size());
    waves_stable_ = 0;

    const std::size_t num_edges = pl_.num_edges();
    tok_present_.assign((num_edges + 63) / 64, 0);
    tok_time_.assign(num_edges, 0.0);
    lane_value_.assign(num_edges, 0);
    lane_sched_.assign(num_edges, 0);
    lane_inflight_.assign((num_edges + 63) / 64, 0);
    lane_vec_ = options_.lane_policy == lane_split_policy::vector;
    if (lane_vec_) {
        lane_time_.assign(num_edges * k_lanes, 0.0);
        lane_time_varies_.assign((num_edges + 63) / 64, 0);
        output_stable_lane_.fill(0.0);
    }
    calendar_.reset(bucket_width_for(options_.delays),
                    max_delay_for(options_.delays), num_edges);

    // Initial marking: tokens in place at t = 0, values broadcast to every
    // lane (the marking is per-netlist, not per-vector).
    for (pl::edge_id e = 0; e < num_edges; ++e) {
        const pl::pl_edge& edge = pl_.edge(e);
        if (edge.init_token) {
            tok_present_[e >> 6] |= std::uint64_t{1} << (e & 63);
            lane_value_[e] = edge.init_value ? ~std::uint64_t{0} : 0;
            --pending_[edge.to];
        }
    }
    for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
        if (pending_[g] == 0 && in_count_[g] != 0) {
            lane_vec_ ? try_fire_lanes_vec(g) : try_fire_lanes(g);
        }
        if (pending_[g] == 0 && in_count_[g] == 0 &&
            desc_[g].kind == pl::gate_kind::source &&
            desc_[g].out_end != desc_[g].out_begin) {
            lane_vec_ ? try_fire_lanes_vec(g) : try_fire_lanes(g);
        }
    }

    run_lane_events();
    ++stats_.lane_runs;
    commit_lane_pass(result);
}

/// Checkpoint (fork policy) or defer (replay policy / budget overflow) the
/// minority lanes of a mixed efire word.  Called from try_fire_lanes at the
/// exact split point: gate g's inputs are consumed and its firing counted,
/// but its output deposits are not yet scheduled — the one piece of state
/// the branches disagree on is g's t_out, which is decided here for the
/// minority (uniform by construction: it is entirely hit-side or miss-side).
void pl_simulator::defer_minority(pl::gate_id g, std::uint64_t minority,
                                  std::uint64_t efire_word, std::uint64_t value,
                                  double t_ready, double t_data,
                                  double efire_time) {
    if (options_.lane_policy == lane_split_policy::replay) {
        lane_deferred_.push_back(minority);
        ++stats_.lane_replays;
        return;
    }

    lane_fork_record rec;
    if (!lane_fork_pool_.empty()) {
        // Reuse a retired record's vector capacities: defer_minority is on
        // the hot split path and three fresh allocations per fork show up.
        rec = std::move(lane_fork_pool_.back());
        lane_fork_pool_.pop_back();
        rec.tokens.clear();
        rec.deposits.clear();
    }
    rec.mask = minority;
    rec.depth = lane_depth_ + 1;
    rec.next_seq = next_seq_;
    rec.input_stable = input_stable_[0];
    rec.output_stable = output_stable_[0];
    rec.sinks_pending = sinks_pending_[0];
    rec.hits = lane_hits_;
    rec.misses = lane_misses_;
    rec.wins = lane_wins_;
    rec.mixed_hits = lane_mixed_hits_;
    rec.mixed_misses = lane_mixed_misses_;
    rec.fired_waves = fired_waves_;
    // Present tokens, sparse over the presence bitset (g's inputs are
    // already cleared, so they are correctly absent).
    for (std::size_t w = 0; w < tok_present_.size(); ++w) {
        for (std::uint64_t bits = tok_present_[w]; bits != 0; bits &= bits - 1) {
            const pl::edge_id e = static_cast<pl::edge_id>(
                (w << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
            rec.tokens.push_back({e, lane_value_[e], tok_time_[e]});
        }
    }
    // Pending deposits: the calendar's event set plus each event's lane
    // payload word (rides in lane_sched_, not the packed key).
    cal_scratch_.clear();
    calendar_.snapshot_pending(cal_scratch_);
    rec.deposits.reserve(cal_scratch_.size());
    for (const cal_event& d : cal_scratch_) {
        rec.deposits.push_back({d, lane_sched_[d.edge()]});
    }
    // The split master's emission on this branch's output path, plus its
    // per-lane EE accounting (the majority's accounting happens at the
    // caller after the mask shrinks).
    rec.split_gate = g;
    rec.split_value = value;
    rec.split_t_ack = t_ready + options_.delays.ack_delay();
    const double normal =
        t_data + options_.delays.gate_delay() + options_.delays.d_ee_penalty;
    if ((efire_word & minority) != 0) {
        const double early = efire_time + options_.delays.efire_delay();
        rec.split_t_out = std::min(early, normal);
        ++rec.hits;
        if (early < normal) ++rec.wins;
    } else {
        rec.split_t_out = normal;
        ++rec.misses;
    }

    rec.footprint = rec.bytes();
    if (lane_fork_bytes_ + rec.footprint > options_.lane_fork_budget_bytes) {
        // Budget pressure degrades to replay: identical results, the branch
        // just pays the from-t0 prefix again instead of holding memory.
        lane_deferred_.push_back(minority);
        ++stats_.lane_replays;
        lane_fork_pool_.push_back(std::move(rec));
        return;
    }
    lane_fork_bytes_ += rec.footprint;
    stats_.lane_fork_bytes_peak =
        std::max<std::uint64_t>(stats_.lane_fork_bytes_peak, lane_fork_bytes_);
    stats_.lane_fork_depth_max =
        std::max<std::uint64_t>(stats_.lane_fork_depth_max, rec.depth);
    ++stats_.lane_forks;
    fork_depth_counts_[std::min<std::size_t>(rec.depth, k_lanes)] += 1;
    lane_forks_.push_back(std::move(rec));
}

/// Resume the most recent fork record: rebuild the pass state it captured,
/// re-emit the split master's outputs on the minority's timing, and re-enter
/// the event loop mid-stream.  Times stay absolute (no epoch rebasing), so
/// every computed per-lane time is bit-identical to the serial run's.
void pl_simulator::run_lane_fork(lane_block_result& result) {
    lane_fork_record rec = std::move(lane_forks_.back());
    lane_forks_.pop_back();
    lane_fork_bytes_ -= rec.footprint;

    lane_mask_ = rec.mask;
    lane_depth_ = rec.depth;
    lane_hits_ = rec.hits;
    lane_misses_ = rec.misses;
    lane_wins_ = rec.wins;
    lane_mixed_hits_ = rec.mixed_hits;
    lane_mixed_misses_ = rec.mixed_misses;
    next_seq_ = rec.next_seq;
    num_waves_ = 1;
    released_waves_ = 1;
    release_time_.assign(1, 0.0);
    input_stable_.assign(1, rec.input_stable);
    output_stable_.assign(1, rec.output_stable);
    sinks_pending_.assign(1, rec.sinks_pending);
    waves_stable_ = 0;  // a split can only happen while sinks are pending
    fired_waves_ = rec.fired_waves;

    const std::size_t num_edges = pl_.num_edges();
    tok_present_.assign((num_edges + 63) / 64, 0);
    lane_inflight_.assign((num_edges + 63) / 64, 0);
    // lane_value_ / lane_sched_ / tok_time_ keep stale entries: the engine
    // only reads the value or time of a present token or an in-flight
    // deposit, and both sets are rebuilt below.
    pending_ = in_count_;
    for (const lane_fork_token& t : rec.tokens) {
        tok_present_[t.edge >> 6] |= std::uint64_t{1} << (t.edge & 63);
        lane_value_[t.edge] = t.value;
        tok_time_[t.edge] = t.time;
        --pending_[topo_.edge_to[t.edge]];
    }
    cal_scratch_.clear();
    for (const lane_fork_deposit& d : rec.deposits) {
        const pl::edge_id e = d.event.edge();
        lane_sched_[e] = d.word;
        lane_inflight_[e >> 6] |= std::uint64_t{1} << (e & 63);
        cal_scratch_.push_back(d.event);
    }
    calendar_.restore(bucket_width_for(options_.delays),
                      max_delay_for(options_.delays), num_edges, cal_scratch_);

    // The split master's outputs, scheduled on this branch's output path.
    const gate_desc& d = desc_[rec.split_gate];
    const std::uint64_t tick_out = calendar_.tick_of(rec.split_t_out);
    const std::uint64_t tick_ack = calendar_.tick_of(rec.split_t_ack);
    for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
        const pl::edge_id e = topo_.out_flat[i];
        if (topo_.edge_is_ack[e]) {
            schedule_lanes(tick_ack, rec.split_t_ack, e, rec.split_value);
        } else {
            schedule_lanes(tick_out, rec.split_t_out, e, rec.split_value);
        }
    }

    lane_fork_pool_.push_back(std::move(rec));
    run_lane_events();
    commit_lane_pass(result);
}

/// The shared lane event loop + deadlock check (identical for from-t0
/// passes and fork resumes).
void pl_simulator::run_lane_events() {
    std::uint64_t events = stats_.events;
    const std::uint64_t max_events = options_.max_events;
    try {
        // Drain to quiescence (see run_heap): with firings capped at the
        // wave horizon the calendar empties deterministically, and every
        // lane pass observes the same firing set regardless of pop order.
        while (!calendar_.empty()) {
            if (++events > max_events ||
                (events & (k_cancel_check_events - 1)) == 0) {
                stats_.events = events;
                check_events(events, "lanes");
            }
            const cal_event& dep = calendar_.pop_min();
            place_lanes(dep.edge(), dep.time);
        }
    } catch (...) {
        stats_.events = events;
        throw;
    }
    stats_.events = events;
    if (waves_stable_ < num_waves_) {
        throw deadlock_error(options_.label, deadlock_diagnostic(),
                             stats_.events, "lanes");
    }
}

/// Commit the lanes the just-finished pass retained into the block result.
/// Values are correct for every lane, so masking is only needed because
/// other branches land with their own (correct) timing.
void pl_simulator::commit_lane_pass(lane_block_result& result) {
    const std::uint64_t kept = lane_mask_;
    for (std::size_t j = 0; j < lane_sink_words_.size(); ++j) {
        result.outputs[j] =
            (result.outputs[j] & ~kept) | (lane_sink_words_[j] & kept);
    }
    if (lane_vec_) {
        // Vector passes already accumulate lane-summed popcounts, and each
        // lane carries its own stability time from the per-lane slab.
        stats_.ee_hits += lane_hits_;
        stats_.ee_misses += lane_misses_;
        stats_.ee_wins += lane_wins_;
        for (std::uint64_t rest = kept; rest != 0; rest &= rest - 1) {
            const std::size_t lane =
                static_cast<std::size_t>(std::countr_zero(rest));
            result.input_stable[lane] = input_stable_[0];
            result.output_stable[lane] = output_stable_lane_[lane];
            result.release[lane] = release_time_[0];
        }
        return;
    }
    const std::uint64_t n = static_cast<std::uint64_t>(std::popcount(kept));
    stats_.ee_hits += lane_hits_ * n;
    stats_.ee_misses += lane_misses_ * n;
    stats_.ee_wins += lane_wins_ * n;
    for (std::uint64_t rest = kept; rest != 0; rest &= rest - 1) {
        const std::size_t lane =
            static_cast<std::size_t>(std::countr_zero(rest));
        stats_.ee_hits += lane_mixed_hits_[lane];
        stats_.ee_misses += lane_mixed_misses_[lane];
        result.input_stable[lane] = input_stable_[0];
        result.output_stable[lane] = output_stable_[0];
        result.release[lane] = release_time_[0];
    }
}

/// Trigger-aware grouping: an untimed value-only dataflow pass over the PL
/// netlist (same firing rules as the lane engine, no queue, no times)
/// records every EE master's efire word in firing order; the block's lanes
/// are then partitioned by the first masters whose words are mixed, so
/// lanes predicted to take different output paths never share a pass.
/// Pure prediction: a truncated frontier, a capped group count, or an
/// abandoned prepass only means some groups still split — correctness is
/// carried by the fork/replay machinery either way.  Fills group_masks_.
void pl_simulator::plan_lane_groups(const stimulus_block& block) {
    group_masks_.clear();
    const std::uint64_t full = block.lane_mask();
    group_masks_.push_back(full);
    if (options_.lane_policy == lane_split_policy::vector ||
        !options_.lane_group || block.num_vectors < 2 || num_masters_ == 0) {
        return;  // vector passes never split, so one full-mask group is best
    }

    constexpr std::size_t k_frontier = 8;  ///< mixed words worth collecting
    constexpr std::size_t k_group_cap = 8;  ///< passes worth pre-paying
    const std::size_t num_edges = pl_.num_edges();
    const std::size_t num_gates = pl_.num_gates();
    pre_value_.assign(num_edges, 0);
    pre_pending_ = in_count_;
    pre_fired_.assign(num_gates, 0);
    pre_worklist_.clear();
    std::size_t sinks_left = pl_.sinks().size();
    std::uint64_t mixed[k_frontier];
    std::size_t num_mixed = 0;

    for (pl::edge_id e = 0; e < num_edges; ++e) {
        const pl::pl_edge& edge = pl_.edge(e);
        if (edge.init_token) {
            pre_value_[e] = edge.init_value ? ~std::uint64_t{0} : 0;
            --pre_pending_[edge.to];
        }
    }
    for (pl::gate_id g = 0; g < num_gates; ++g) {
        if (pre_pending_[g] != 0) continue;
        if (in_count_[g] != 0 || (desc_[g].kind == pl::gate_kind::source &&
                                  desc_[g].out_end != desc_[g].out_begin)) {
            pre_worklist_.push_back(g);
        }
    }

    const auto emit = [&](pl::edge_id e, std::uint64_t word) {
        pre_value_[e] = word;
        const pl::gate_id to = topo_.edge_to[e];
        if (--pre_pending_[to] == 0) pre_worklist_.push_back(to);
    };
    // Firing budget: the timed pass's firings are bounded by the ack
    // round-trips of one wave; anything past this bound is a pathological
    // netlist and the prediction is abandoned mid-way (harmless).
    std::size_t budget = 64 * num_gates + 4096;
    while (!pre_worklist_.empty() && sinks_left > 0 &&
           num_mixed < k_frontier && budget-- > 0) {
        const pl::gate_id g = pre_worklist_.back();
        pre_worklist_.pop_back();
        const gate_desc& d = desc_[g];
        if (d.kind == pl::gate_kind::source) {
            if (pre_fired_[g] >= 1) continue;  // single-wave protocol
            pre_pending_[g] = in_count_[g];
            ++pre_fired_[g];
            const std::uint64_t word = block.words[d.env_slot];
            for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
                emit(topo_.out_flat[i], word);
            }
            continue;
        }
        if (d.kind == pl::gate_kind::sink) {
            pre_pending_[g] = in_count_[g];
            if (pre_fired_[g]++ == 0) --sinks_left;
            for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
                emit(topo_.out_flat[i], 0);
            }
            continue;
        }
        std::uint64_t ins[bf::k_max_vars];
        for (std::uint8_t pin = 0; pin < d.num_data; ++pin) {
            ins[pin] = pre_value_[topo_.data_flat[d.data_begin + pin]];
        }
        pre_pending_[g] = in_count_[g];
        ++pre_fired_[g];
        std::uint64_t value = 0;
        switch (d.kind) {
            case pl::gate_kind::const_source:
                value = d.const_value ? ~std::uint64_t{0} : 0;
                break;
            case pl::gate_kind::through:
                value = d.num_data != 0 ? ins[0] : 0;
                break;
            default:  // trigger / compute
                value = bf::truth_table::eval_word_lanes(d.fn_bits.data(),
                                                         d.num_data, ins);
                break;
        }
        if (d.efire_in != pl::k_invalid_edge) {
            const std::uint64_t efire = pre_value_[d.efire_in] & full;
            if (efire != 0 && efire != full) mixed[num_mixed++] = efire;
        }
        for (std::uint32_t i = d.out_begin; i < d.out_end; ++i) {
            emit(topo_.out_flat[i], value);
        }
    }

    // Partition by the collected frontier: earlier mixed masters first (they
    // are the dominant, earliest-splitting ones), larger fragment keeps its
    // slot so group order tracks expected size.
    for (std::size_t i = 0; i < num_mixed && group_masks_.size() < k_group_cap;
         ++i) {
        const std::size_t groups = group_masks_.size();
        for (std::size_t j = 0;
             j < groups && group_masks_.size() < k_group_cap; ++j) {
            const std::uint64_t a = group_masks_[j] & mixed[i];
            const std::uint64_t b = group_masks_[j] & ~mixed[i];
            if (a == 0 || b == 0) continue;
            group_masks_[j] = std::popcount(a) >= std::popcount(b) ? a : b;
            group_masks_.push_back(group_masks_[j] == a ? b : a);
        }
    }
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

    lane_block_result result;
    result.num_vectors = block.num_vectors;
    result.outputs.assign(pl_.sinks().size(), 0);

    const bool calendar_fits = pl_.num_edges() < cal_event::k_max_edges &&
                               options_.max_events < cal_event::k_max_seq / 2;
    if (options_.queue == queue_kind::binary_heap || !calendar_fits) {
        // Scalar fallback: one run per lane, identical results by
        // construction.  Stats are summed so callers see block totals, and
        // the running total is committed before a rethrow so a lane that
        // throws mid-loop leaves block-consistent counters behind (the
        // throwing lane's own partial stats included), mirroring the lane
        // event loop's catch block.
        sim_run_stats total{};
        total.lane_blocks = 1;
        total.lane_vectors = block.num_vectors;
        std::vector<std::vector<bool>> one(1);
        for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
            block.extract(lane, one.front());
            std::vector<wave_record> recs;
            try {
                recs = run(one);
            } catch (...) {
                add_run_stats(total, stats_);
                stats_ = total;
                throw;
            }
            add_run_stats(total, stats_);
            ++total.lane_runs;
            const wave_record& rec = recs.front();
            for (std::size_t j = 0; j < rec.outputs.size(); ++j) {
                if (rec.outputs[j]) {
                    result.outputs[j] |= std::uint64_t{1} << lane;
                }
            }
            result.input_stable[lane] = rec.input_stable;
            result.output_stable[lane] = rec.output_stable;
            result.release[lane] = rec.release_time;
        }
        stats_ = total;
        return result;
    }

    reset();
    stats_.lane_blocks = 1;
    stats_.lane_vectors = block.num_vectors;
    lane_block_ = &block;
    lane_sink_words_.assign(pl_.sinks().size(), 0);
    lane_forks_.clear();
    lane_fork_bytes_ = 0;
    plan_lane_groups(block);
    stats_.lane_groups = group_masks_.size();
    lane_deferred_ = group_masks_;
    // Forks drain LIFO (depth-first) so the live checkpoint chain stays a
    // single root-to-leaf path — that is what bounds lane_fork_bytes_.
    while (!lane_deferred_.empty() || !lane_forks_.empty()) {
        if (!lane_forks_.empty()) {
            run_lane_fork(result);
        } else {
            const std::uint64_t mask = lane_deferred_.back();
            lane_deferred_.pop_back();
            run_lane_pass(mask, result);
        }
    }
    lane_block_ = nullptr;
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
