// heap_oracle.hpp — the time-ordered reference simulator, for tests only.
//
// The seed's binary-heap engine: every token deposit is an event, popped in
// (time, seq) order from a std::push_heap min-heap over array-of-structs
// token slots.  It runs the sequential-wave protocol of
// sim::pl_simulator::run — same firing rule, delay model, wave horizon and
// typed failures — but replays deposits in time order instead of following
// a compiled wave schedule, so it is an independent oracle for
// pl_simulator's evaluator.  It checks the EE invariant at every master
// firing, which pl_simulator proves once, when it compiles.  It is built
// only on pl::pl_netlist's public API and shares no code with the engine
// it checks.  Header-only; slow and simple by design.

#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "plogic/pl_netlist.hpp"
#include "sim/errors.hpp"
#include "sim/pl_sim.hpp"

namespace plee::sim::testing {

class heap_oracle {
public:
    explicit heap_oracle(const pl::pl_netlist& pl, sim_options options = {})
        : pl_(pl), options_(std::move(options)), slot_(pl.num_gates(), 0) {
        for (std::size_t i = 0; i < pl.sources().size(); ++i) {
            slot_[pl.sources()[i]] = i;
        }
        for (std::size_t i = 0; i < pl.sinks().size(); ++i) {
            slot_[pl.sinks()[i]] = i;
        }
    }

    /// The sequential-wave protocol: vectors[k] drives wave k.  Throws
    /// budget_exhausted, deadlock_error and invariant_violation (engine
    /// "heap") like pl_simulator::run.
    std::vector<wave_record> run(const std::vector<std::vector<bool>>& vectors) {
        stats_ = {};
        trace_.clear();
        heap_.clear();
        next_seq_ = 0;
        vectors_ = &vectors;
        num_waves_ = vectors.size();
        released_waves_ = options_.non_pipelined ? 1 : num_waves_;
        const std::size_t num_sinks = pl_.sinks().size();
        waves_.assign(num_waves_, wave_record{});
        for (wave_record& w : waves_) w.outputs.assign(num_sinks, false);
        sinks_pending_.assign(num_waves_, num_sinks);
        waves_stable_ = 0;
        pending_.assign(pl_.num_gates(), 0);
        fired_waves_.assign(pl_.num_gates(), 0);
        tokens_.assign(pl_.num_edges(), {});
        for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
            pending_[g] = pl_.in_edges(g).size();
        }
        // Initial marking: tokens in place at t = 0.
        for (pl::edge_id e = 0; e < pl_.num_edges(); ++e) {
            const pl::pl_edge& edge = pl_.edge(e);
            if (edge.init_token) {
                tokens_[e] = {true, edge.init_value, 0.0};
                --pending_[edge.to];
            }
        }
        for (pl::gate_id g = 0; g < pl_.num_gates(); ++g) {
            if (pending_[g] != 0) continue;
            if (!pl_.in_edges(g).empty() || (pl_.gate(g).kind == pl::gate_kind::source &&
                                              !pl_.out_edges(g).empty())) {
                try_fire(g);
            }
        }
        // Drain to quiescence: the wave-horizon cap bounds the event stream.
        while (!heap_.empty()) {
            if (++stats_.events > options_.max_events) {
                throw budget_exhausted("", stats_.events, "heap");
            }
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
            const deposit d = heap_.back();
            heap_.pop_back();
            place(d);
        }
        if (waves_stable_ < num_waves_) {
            throw deadlock_error("",
                                 std::to_string(waves_stable_) + "/" +
                                     std::to_string(num_waves_) +
                                     " waves stable",
                                 stats_.events, "heap");
        }
        return waves_;
    }

    const sim_run_stats& stats() const { return stats_; }
    /// Data-token arrivals of the last run, sorted by (time, edge) like
    /// pl_simulator::run's traced overload.  Every run records them; only a
    /// caller that reads them pays for the sort.
    std::vector<trace_event> trace() const {
        std::vector<trace_event> sorted = trace_;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const trace_event& a, const trace_event& b) {
                             return a.time != b.time ? a.time < b.time
                                                     : a.edge < b.edge;
                         });
        return sorted;
    }

private:
    struct token {
        bool present = false;
        bool value = false;
        double time = 0.0;
    };
    struct deposit {
        double time = 0.0;
        std::uint64_t seq = 0;
        pl::edge_id edge = pl::k_invalid_edge;
        bool value = false;
        bool operator>(const deposit& o) const {
            return time != o.time ? time > o.time : seq > o.seq;
        }
    };

    void schedule(pl::edge_id edge, bool value, double time) {
        heap_.push_back({time, next_seq_++, edge, value});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }

    void place(const deposit& d) {
        token& tok = tokens_[d.edge];
        if (tok.present) {
            throw invariant_violation("token deposited onto an occupied edge " +
                                          std::to_string(d.edge),
                                      "", stats_.events, "heap");
        }
        tok = {true, d.value, d.time};
        const pl::pl_edge& e = pl_.edge(d.edge);
        if (e.kind == pl::edge_kind::data) trace_.push_back({d.time, d.edge, d.value});
        if (--pending_[e.to] == 0) try_fire(e.to);
    }

    /// Consumes one token per input edge; returns their latest time.
    double consume(pl::gate_id g, double t_ready) {
        for (pl::edge_id e : pl_.in_edges(g)) {
            t_ready = std::max(t_ready, tokens_[e].time);
            tokens_[e].present = false;
            ++pending_[g];
        }
        ++fired_waves_[g];
        ++stats_.firings;
        return t_ready;
    }

    void fire_source(pl::gate_id g) {
        // A source without acknowledge inputs free-runs through every
        // released wave.
        while (pending_[g] == 0) {
            const std::size_t wave = fired_waves_[g];
            if (wave >= num_waves_ || wave >= released_waves_) return;
            const double t_out =
                consume(g, waves_[wave].release_time) + options_.delays.d_source;
            waves_[wave].input_stable = std::max(waves_[wave].input_stable, t_out);
            const bool value = (*vectors_)[wave][slot_[g]];
            for (pl::edge_id e : pl_.out_edges(g)) schedule(e, value, t_out);
        }
    }

    void record_sink(pl::gate_id g) {
        const token tok = tokens_[pl_.data_in(g).front()];
        const std::size_t wave = fired_waves_[g];
        const double t_ack = consume(g, tok.time) + options_.delays.ack_delay();
        for (pl::edge_id e : pl_.out_edges(g)) schedule(e, false, t_ack);
        wave_record& w = waves_[wave];
        w.outputs[slot_[g]] = tok.value;
        w.output_stable = std::max(w.output_stable, tok.time);
        if (--sinks_pending_[wave] != 0) return;
        ++waves_stable_;
        if (options_.non_pipelined && wave + 1 < num_waves_) {
            waves_[wave + 1].release_time = w.output_stable;
            ++released_waves_;
            for (pl::gate_id src : pl_.sources()) {
                if (pending_[src] == 0) fire_source(src);
            }
        }
    }

    void try_fire(pl::gate_id g) {
        // Wave horizon: every gate fires once per wave, so an enabling past
        // num_waves_ firings is post-completion drain.
        if (pending_[g] != 0 || fired_waves_[g] >= num_waves_) return;
        const pl::pl_gate& gate = pl_.gate(g);
        if (gate.kind == pl::gate_kind::source) return fire_source(g);
        if (gate.kind == pl::gate_kind::sink) return record_sink(g);

        std::uint32_t minterm = 0;
        double t_data = 0.0;
        const auto pins = pl_.data_in(g);
        for (std::size_t pin = 0; pin < pins.size(); ++pin) {
            const token& tok = tokens_[pins[pin]];
            if (tok.value) minterm |= 1u << pin;
            t_data = std::max(t_data, tok.time);
        }
        const bool is_master = gate.efire_in != pl::k_invalid_edge;
        const token efire = is_master ? tokens_[gate.efire_in] : token{};
        const double t_ready = consume(g, 0.0);
        const delay_model& dm = options_.delays;

        bool value = (minterm & 1u) != 0;  // through: identity on D
        double t_out = t_ready + dm.through_delay();
        if (gate.kind == pl::gate_kind::const_source) {
            value = gate.const_value;
            t_out = t_ready + dm.d_source;
        } else if (gate.kind != pl::gate_kind::through) {
            value = gate.function.eval(minterm);
            t_out = t_ready + dm.gate_delay();
        }
        if (is_master) {
            // Normal completion pays the extra C-element; a 1-valued efire
            // token opens the output latch early.
            const double normal = t_data + dm.gate_delay() + dm.d_ee_penalty;
            t_out = normal;
            if (efire.value) {
                const double early = efire.time + dm.efire_delay();
                t_out = std::min(early, normal);
                ++stats_.ee_hits;
                if (early < normal) ++stats_.ee_wins;
            } else {
                ++stats_.ee_misses;
            }
            // The EE invariant: the trigger recomputed from the consumed
            // operands must equal the efire token.
            const pl::pl_gate& trig = pl_.gate(gate.trigger);
            std::uint32_t packed = 0;
            std::uint32_t bit = 0;
            for (std::uint32_t pin = 0; pin < 32; ++pin) {
                if ((trig.trigger_support >> pin) & 1u) {
                    packed |= ((minterm >> pin) & 1u) << bit++;
                }
            }
            if (trig.function.eval(packed) != efire.value) {
                throw invariant_violation(
                    "efire token disagrees with the trigger function",
                    "", stats_.events, "heap");
            }
        }
        const double t_ack = t_ready + dm.ack_delay();
        for (pl::edge_id e : pl_.out_edges(g)) {
            schedule(e, value,
                     pl_.edge(e).kind == pl::edge_kind::ack ? t_ack : t_out);
        }
    }

    const pl::pl_netlist& pl_;
    sim_options options_;
    std::vector<std::size_t> slot_;  ///< per gate: position in sources()/sinks()
    sim_run_stats stats_;
    std::vector<trace_event> trace_;
    std::vector<deposit> heap_;
    std::uint64_t next_seq_ = 0;
    const std::vector<std::vector<bool>>* vectors_ = nullptr;
    std::size_t num_waves_ = 0;
    std::size_t released_waves_ = 0;
    std::vector<wave_record> waves_;
    std::vector<std::size_t> sinks_pending_;
    std::size_t waves_stable_ = 0;
    std::vector<std::size_t> pending_;
    std::vector<std::size_t> fired_waves_;
    std::vector<token> tokens_;
};

}  // namespace plee::sim::testing
