// ledr_oracle.hpp — structural simulation at the physical LEDR encoding
// level: the untimed delay-insensitivity oracle, for tests only.
//
// The token-level simulator (sim/pl_sim.hpp) treats a PL netlist as a
// marked graph.  This oracle simulates the same netlist the way the silicon
// of Figure 1 does:
//   * every data wire holds a Level-Encoded Dual-Rail state (v, t) whose
//     phase p = v XOR t alternates with each new token;
//   * every gate owns a phase bit (the Muller-C element output) and fires
//     when all of its data inputs carry the phase the gate awaits and all of
//     its acknowledge inputs confirm the consumers have caught up;
//   * firing latches the LUT output into the wire's v/t latches (exactly one
//     rail toggles), toggles the gate phase and toggles the gate's
//     acknowledge (fi/fo) outputs.
//
// It is deliberately untimed and order-insensitive: gates fire in an
// arbitrary scan order until quiescent, which demonstrates the
// delay-insensitivity claim — any firing order yields the same per-wave
// output words.  tests/test_ledr_sim.cpp checks it against the synchronous
// golden model and the token-level simulator.  Header-only; slow and simple
// by design.

#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "plogic/ledr.hpp"
#include "plogic/pl_netlist.hpp"

namespace plee::pl::testing {

class ledr_oracle {
public:
    /// `scan_seed` permutes the gate scan order; any seed must produce the
    /// same outputs (delay-insensitivity), which the tests assert.
    explicit ledr_oracle(const pl_netlist& pl, std::uint64_t scan_seed = 0) : pl_(pl) {
        scan_order_.resize(pl.num_gates());
        for (gate_id g = 0; g < pl.num_gates(); ++g) scan_order_[g] = g;
        // Fisher–Yates with a small LCG: the scan order must be immaterial.
        std::uint64_t state = scan_seed * 2862933555777941757ull + 3037000493ull;
        for (std::size_t i = scan_order_.size(); i > 1; --i) {
            state = state * 6364136223846793005ull + 1442695040888963407ull;
            std::swap(scan_order_[i - 1], scan_order_[(state >> 33) % i]);
        }
    }

    /// Runs `vectors.size()` waves; vectors[k] holds the wave-k value of
    /// each primary input in pl.sources() order.  Returns one output word
    /// (sink order) per wave.  Throws std::runtime_error on deadlock.
    std::vector<std::vector<bool>> run(const std::vector<std::vector<bool>>& vectors) {
        for (const auto& v : vectors) {
            if (v.size() != pl_.sources().size()) {
                throw std::invalid_argument("ledr_oracle::run: vector width mismatch");
            }
        }
        const std::size_t num_waves = vectors.size();

        // Source gate -> index in sources(), sink gate -> index in sinks().
        std::vector<std::size_t> source_index(pl_.num_gates(), 0);
        std::vector<std::size_t> sink_index(pl_.num_gates(), 0);
        for (std::size_t i = 0; i < pl_.sources().size(); ++i) {
            source_index[pl_.sources()[i]] = i;
        }
        for (std::size_t i = 0; i < pl_.sinks().size(); ++i) {
            sink_index[pl_.sinks()[i]] = i;
        }

        // Initial physical state.  Wires holding an initial token carry the
        // even (wave 0) phase; empty wires carry the stale odd phase of the
        // notional wave -1.  All gate phases start even, all ack toggles low.
        wire_.assign(pl_.num_edges(), ledr_signal{});
        ack_state_.assign(pl_.num_edges(), 0);
        gate_phase_.assign(pl_.num_gates(), 0);
        fired_.assign(pl_.num_gates(), 0);
        firings_ = 0;
        for (edge_id e = 0; e < pl_.num_edges(); ++e) {
            const pl_edge& edge = pl_.edge(e);
            if (edge.kind != edge_kind::data) continue;
            if (edge.init_token) {
                wire_[e] = ledr_signal{edge.init_value, edge.init_value};  // even
            } else {
                wire_[e] = ledr_signal{false, true};  // odd: consumed long ago
            }
        }

        std::vector<std::vector<bool>> outputs(
            num_waves, std::vector<bool>(pl_.sinks().size(), false));

        auto sinks_done = [&] {
            for (gate_id s : pl_.sinks()) {
                if (fired_[s] < num_waves) return false;
            }
            return true;
        };

        while (!sinks_done()) {
            bool progress = false;
            for (gate_id g : scan_order_) {
                const gate_kind kind = pl_.gate(g).kind;
                if (kind == gate_kind::source && fired_[g] >= num_waves) continue;
                if (pl_.in_edges(g).empty() && pl_.out_edges(g).empty()) continue;
                if (!enabled(g)) continue;

                if (kind == gate_kind::source) {
                    const bool value = vectors[fired_[g]][source_index[g]];
                    for (edge_id e : pl_.out_edges(g)) {
                        wire_[e] = wire_[e].next_token(value);
                    }
                    gate_phase_[g] ^= 1;
                    ++fired_[g];
                    ++firings_;
                } else if (kind == gate_kind::sink) {
                    const std::size_t wave = fired_[g];
                    if (wave < num_waves) {
                        outputs[wave][sink_index[g]] = wire_[pl_.data_in(g).front()].v;
                    }
                    fire(g);
                } else {
                    fire(g);
                }
                progress = true;
            }
            if (!progress) {
                std::size_t stuck = 0;
                for (gate_id s : pl_.sinks()) stuck += fired_[s] < num_waves;
                throw std::runtime_error(
                    "ledr_oracle: deadlock with " + std::to_string(stuck) +
                    " sinks incomplete (liveness violation at the LEDR level)");
            }
        }
        return outputs;
    }

    /// Total gate firings of the last run (every PL gate fires once per wave).
    std::uint64_t firings() const { return firings_; }

private:
    bool enabled(gate_id g) const {
        const bool phase = gate_phase_[g] != 0;
        for (edge_id e : pl_.in_edges(g)) {
            const pl_edge& edge = pl_.edge(e);
            if (edge.kind == edge_kind::data) {
                // "A phased logic gate fires whenever all of the phases of the
                // inputs matches the internal gate phase."
                const bool wire_phase = wire_[e].signal_phase() == phase::odd;
                if (wire_phase != phase) return false;
            } else {
                // Acknowledge toggle wires: a marked ack (free queue slot) must
                // show the gate's own parity; an unmarked ack must show the
                // consumer one firing ahead.
                const bool required = edge.init_token ? phase : !phase;
                if ((ack_state_[e] != 0) != required) return false;
            }
        }
        return true;
    }

    void fire(gate_id g) {
        const pl_gate& gate = pl_.gate(g);
        const auto pins = pl_.data_in(g);
        bool value = false;
        switch (gate.kind) {
            case gate_kind::source:
                throw std::logic_error("ledr_oracle: sources fire via run()");
            case gate_kind::const_source:
                value = gate.const_value;
                break;
            case gate_kind::through:
            case gate_kind::sink:
                value = wire_[pins.front()].v;
                break;
            case gate_kind::compute:
            case gate_kind::trigger: {
                std::uint32_t minterm = 0;
                for (std::size_t pin = 0; pin < pins.size(); ++pin) {
                    if (wire_[pins[pin]].v) minterm |= 1u << pin;
                }
                value = gate.function.eval(minterm);
                break;
            }
        }

        for (edge_id e : pl_.out_edges(g)) {
            if (pl_.edge(e).kind == edge_kind::data) {
                // Exactly one of the v/t latches toggles (delay-insensitive).
                wire_[e] = wire_[e].next_token(value);
            } else {
                ack_state_[e] ^= 1;  // fi/fo feedback toggle
            }
        }
        gate_phase_[g] ^= 1;
        ++fired_[g];
        ++firings_;
    }

    const pl_netlist& pl_;
    std::vector<gate_id> scan_order_;

    // Physical state.
    std::vector<ledr_signal> wire_;     ///< per data edge: LEDR latch state
    std::vector<char> ack_state_;       ///< per ack edge: toggle wire level
    std::vector<char> gate_phase_;      ///< per gate: Muller-C phase bit
    std::vector<std::uint32_t> fired_;  ///< per gate: completed firings
    std::uint64_t firings_ = 0;
};

}  // namespace plee::pl::testing
