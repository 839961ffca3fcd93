#include "workload/workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "bool/splitmix64.hpp"

namespace plee::wl {

namespace {

/// The generator's only randomness source: a splitmix64 counter stream.
/// All sampling below is integer-only so a seed fixes every decision
/// bit-for-bit on any platform.
class rng_stream {
public:
    explicit rng_stream(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() { return bf::splitmix64(state_++); }

    /// Uniform in [0, n); n must be > 0.  Modulo bias is irrelevant at the
    /// pool sizes involved and keeps the sampling platform-exact.
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    bool chance_mille(std::uint64_t mille) { return below(1000) < mille; }

    bool bit() { return (next() & 1u) != 0; }

    std::vector<int> permutation(int n) {
        std::vector<int> p(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) p[static_cast<std::size_t>(i)] = i;
        for (int i = n - 1; i > 0; --i) {
            std::swap(p[static_cast<std::size_t>(i)],
                      p[below(static_cast<std::uint64_t>(i) + 1)]);
        }
        return p;
    }

private:
    std::uint64_t state_;
};

std::uint64_t to_mille(double fraction) {
    const double clamped = std::clamp(fraction, 0.0, 1.0);
    return static_cast<std::uint64_t>(std::lround(clamped * 1000.0));
}

// Function templates for the arithmetic mix, by arity.  Every pick is
// NPN-scrambled (random input permutation + negations) afterwards, so the
// generated family exercises whole NPN classes, not just these seeds.
constexpr std::uint64_t k_arith2[] = {0x6, 0x8, 0xE, 0x9};
constexpr std::uint64_t k_arith3[] = {0x96, 0xE8, 0xCA, 0x80, 0xFE, 0x17};
constexpr std::uint64_t k_arith4[] = {0x6996, 0xF888, 0x8000, 0xFFFE, 0x7EE8};

/// Wide (5..8 input) arithmetic templates, built once per arity: parity,
/// majority, AND, OR, a mux tree (low inputs select among the high ones) and
/// a carry-save-shaped threshold — the early-output adder/comparator block
/// shapes of the wide-arity studies.  NPN scrambling afterwards spreads each
/// template over its whole class, exactly like the LUT2-4 seeds above.
std::vector<bf::truth_table> make_wide_templates(int arity) {
    std::vector<bf::truth_table> t;
    t.push_back(bf::truth_table::from_function(
        arity, [](std::uint32_t m) { return (std::popcount(m) & 1) != 0; }));
    t.push_back(bf::truth_table::from_function(arity, [arity](std::uint32_t m) {
        return std::popcount(m) * 2 > arity;
    }));
    t.push_back(bf::truth_table::from_function(arity, [arity](std::uint32_t m) {
        return m == (1u << arity) - 1;
    }));
    t.push_back(bf::truth_table::from_function(
        arity, [](std::uint32_t m) { return m != 0; }));
    // Mux: the low select inputs address one of the remaining data inputs
    // by wrapping modulo.  Full support needs (a) 2^sel >= data so every
    // data input is reachable and (b) 2^(sel-1) % data != 0 so the top
    // select bit survives the wrap — e.g. 3 select bits over 4 data inputs
    // would leave select bit 2 vacuous (4 % 4 == 0) and the "wide" template
    // secretly narrower than its arity.
    int sel = 1;
    while ((1 << sel) < arity - sel ||
           (sel > 1 && (1 << (sel - 1)) % (arity - sel) == 0)) {
        ++sel;
    }
    const int data = arity - sel;
    t.push_back(bf::truth_table::from_function(arity, [=](std::uint32_t m) {
        const std::uint32_t which = (m & ((1u << sel) - 1)) % static_cast<std::uint32_t>(data);
        return ((m >> (sel + which)) & 1u) != 0;
    }));
    t.push_back(bf::truth_table::from_function(arity, [arity](std::uint32_t m) {
        return std::popcount(m) >= arity - 1;
    }));
    // Every template must genuinely span its arity: a pick with dead pins
    // would wire a narrower function to `arity` sources and quietly shrink
    // the wide-support trigger space the presets exist to exercise.
    for (const bf::truth_table& f : t) {
        if (f.support_mask() != (1u << arity) - 1) {
            throw std::logic_error(
                "workload: wide template does not span its arity");
        }
    }
    return t;
}

const std::vector<bf::truth_table>& wide_templates(int arity) {
    static const std::vector<bf::truth_table> k_by_arity[4] = {
        make_wide_templates(5), make_wide_templates(6), make_wide_templates(7),
        make_wide_templates(8)};
    return k_by_arity[arity - 5];
}

bf::truth_table sample_function(rng_stream& rng, int arity, function_mix mix) {
    const std::uint64_t full =
        arity >= 6 ? ~std::uint64_t{0} : ((std::uint64_t{1} << (1u << arity)) - 1);
    if (arity == 1) {
        // Buffer or inverter regardless of mix — the only non-constant
        // 1-input functions.
        return bf::truth_table(1, rng.bit() ? 0b10 : 0b01);
    }

    switch (mix) {
        case function_mix::arithmetic: {
            bf::truth_table t(arity);
            if (arity == 2) t = bf::truth_table(2, k_arith2[rng.below(std::size(k_arith2))]);
            else if (arity == 3) t = bf::truth_table(3, k_arith3[rng.below(std::size(k_arith3))]);
            else if (arity == 4) t = bf::truth_table(4, k_arith4[rng.below(std::size(k_arith4))]);
            else {
                const std::vector<bf::truth_table>& pool = wide_templates(arity);
                t = pool[rng.below(pool.size())];
            }
            t = t.negate_inputs(static_cast<std::uint32_t>(rng.next()) &
                                ((1u << arity) - 1));
            return t.permute(rng.permutation(arity));
        }
        case function_mix::control: {
            // A sparse decode: OR of 1..3 distinct minterms, complemented
            // half the time.  Never constant (3 < 2^arity for arity >= 2).
            bf::truth_table t(arity);
            const std::uint64_t count = 1 + rng.below(3);
            for (std::uint64_t i = 0; i < count; ++i) {
                t.set(static_cast<std::uint32_t>(rng.below(1u << arity)), true);
            }
            return rng.bit() ? ~t : t;
        }
        case function_mix::uniform:
        default: {
            // Prefer full-support non-constant tables; after a few rejected
            // draws accept partial support but still repair constants.  The
            // draw order is word 0 first, so <= 6-input sampling consumes the
            // stream exactly as it did before multiword tables.
            bf::tt_words words{};
            const int nw = bf::words_for(arity);
            for (int attempt = 0; attempt < 6; ++attempt) {
                words[0] = rng.next() & full;
                for (int w = 1; w < nw; ++w) words[w] = rng.next();
                const bf::truth_table t(arity, words);
                if (!t.is_constant() &&
                    t.support_mask() == (1u << arity) - 1) {
                    return t;
                }
            }
            bf::truth_table t(arity, words);
            if (t.is_constant()) {
                words[0] ^= 1;
                t = bf::truth_table(arity, words);
            }
            return t;
        }
    }
}

}  // namespace

const char* to_string(scenario s) {
    switch (s) {
        case scenario::random_dag: return "random-dag";
        case scenario::datapath_like: return "datapath-like";
        case scenario::control_fsm: return "control-fsm";
        case scenario::wide_adder: return "wide-adder";
        case scenario::lut6_dag: return "lut6-dag";
        case scenario::lut8_datapath: return "lut8-datapath";
    }
    return "unknown";
}

scenario scenario_from_string(const std::string& name) {
    for (scenario s : all_scenarios()) {
        if (name == to_string(s)) return s;
    }
    throw std::invalid_argument("unknown workload scenario: " + name);
}

const std::vector<scenario>& all_scenarios() {
    static const std::vector<scenario> k_all = {
        scenario::random_dag,  scenario::datapath_like, scenario::control_fsm,
        scenario::wide_adder,  scenario::lut6_dag,      scenario::lut8_datapath};
    return k_all;
}

workload_params scenario_params(scenario kind, std::size_t num_gates,
                                std::uint64_t seed) {
    workload_params p;
    p.name = to_string(kind);
    p.seed = seed;
    p.num_gates = num_gates;
    switch (kind) {
        case scenario::random_dag:
            p.num_inputs = std::max<std::size_t>(8, num_gates / 10);
            p.num_outputs = std::max<std::size_t>(4, num_gates / 20);
            break;
        case scenario::datapath_like:
            p.mix = function_mix::arithmetic;
            p.arity_weights = {0, 15, 45, 40};
            p.locality = 0.85;
            p.latch_fraction = 0.08;
            p.depth_layers = std::max<std::size_t>(4, num_gates / 12);
            p.num_inputs = std::max<std::size_t>(8, num_gates / 8);
            p.num_outputs = std::max<std::size_t>(4, num_gates / 16);
            break;
        case scenario::control_fsm:
            p.mix = function_mix::control;
            p.arity_weights = {10, 35, 35, 20};
            p.locality = 0.35;
            p.latch_fraction = 0.30;
            p.depth_layers = std::max<std::size_t>(
                3, static_cast<std::size_t>(std::sqrt(static_cast<double>(num_gates)) / 2.0));
            p.num_inputs = std::max<std::size_t>(6, num_gates / 16);
            p.num_outputs = std::max<std::size_t>(4, num_gates / 16);
            break;
        case scenario::wide_adder:
            p.mix = function_mix::arithmetic;
            p.arity_weights = {0, 5, 85, 10, 0, 0, 0, 0};
            p.locality = 0.95;
            p.latch_fraction = 0.05;
            p.depth_layers = std::max<std::size_t>(4, num_gates / 3);
            p.num_inputs = std::max<std::size_t>(8, num_gates / 4);
            p.num_outputs = std::max<std::size_t>(4, num_gates / 8);
            break;
        case scenario::lut6_dag:
            // Wide-arity null family: uniform LUT5/LUT6 blocks exercising
            // the one- and two-word trigger-search path at every gate.
            p.max_arity = 6;
            p.arity_weights = {0, 5, 10, 20, 30, 35, 0, 0};
            p.locality = 0.5;
            p.num_inputs = std::max<std::size_t>(12, num_gates / 6);
            p.num_outputs = std::max<std::size_t>(4, num_gates / 16);
            break;
        case scenario::lut8_datapath:
            // Widest blocks: LUT7/LUT8-heavy arithmetic templates — the
            // early-output adder/comparator shapes the multiword kernels
            // exist for.  Four-word truth tables on most gates.
            p.mix = function_mix::arithmetic;
            p.max_arity = 8;
            p.arity_weights = {0, 0, 10, 15, 15, 20, 20, 20};
            p.locality = 0.8;
            p.latch_fraction = 0.08;
            p.depth_layers = std::max<std::size_t>(4, num_gates / 10);
            p.num_inputs = std::max<std::size_t>(16, num_gates / 5);
            p.num_outputs = std::max<std::size_t>(4, num_gates / 12);
            break;
    }
    return p;
}

nl::netlist generate(const workload_params& params) {
    if (params.num_gates == 0) {
        throw std::invalid_argument("workload: num_gates must be > 0");
    }
    if (params.num_inputs < 2) {
        throw std::invalid_argument("workload: need at least 2 inputs");
    }
    if (params.max_arity < 1 || params.max_arity > bf::k_max_vars) {
        throw std::invalid_argument("workload: max_arity must be in [1, 8]");
    }
    int reachable_weight = 0;
    for (int a = 0; a < params.max_arity; ++a) {
        reachable_weight += params.arity_weights[static_cast<std::size_t>(a)];
    }
    if (reachable_weight <= 0) {
        throw std::invalid_argument("workload: arity_weights must not all be zero");
    }

    rng_stream rng(params.seed);
    const std::uint64_t locality_mille = to_mille(params.locality);
    nl::netlist nl;

    std::vector<nl::cell_id> sources;  // everything a LUT may read: grows as we go
    for (std::size_t i = 0; i < params.num_inputs; ++i) {
        sources.push_back(nl.add_input("in" + std::to_string(i)));
    }

    // State bits first: DFF outputs are readable from every layer and their
    // D inputs are wired to late-layer LUTs afterwards — that is what closes
    // sequential feedback loops without creating combinational ones.
    const std::size_t num_latches = static_cast<std::size_t>(std::lround(
        std::clamp(params.latch_fraction, 0.0, 1.0) *
        static_cast<double>(params.num_gates)));
    std::vector<nl::cell_id> latches;
    for (std::size_t i = 0; i < num_latches; ++i) {
        const nl::cell_id d = nl.add_dff(nl::k_invalid_cell, rng.bit());
        latches.push_back(d);
        sources.push_back(d);
    }

    // Layer sizing: requested depth (clamped so every layer holds a gate) or
    // a ~sqrt profile, remainder spread over the earliest layers.
    std::size_t layers = params.depth_layers != 0
                             ? params.depth_layers
                             : static_cast<std::size_t>(std::lround(std::sqrt(
                                   static_cast<double>(params.num_gates))));
    layers = std::clamp<std::size_t>(layers, 1, params.num_gates);
    const std::size_t per_layer = params.num_gates / layers;
    const std::size_t remainder = params.num_gates % layers;

    std::vector<nl::cell_id> prev_layer;
    std::vector<nl::cell_id> last_layer;
    for (std::size_t l = 0; l < layers; ++l) {
        const std::size_t width = per_layer + (l < remainder ? 1 : 0);
        std::vector<nl::cell_id> layer;
        layer.reserve(width);
        for (std::size_t g = 0; g < width; ++g) {
            // Sample the fanin count from the arity weights, clamped to the
            // cap and to the number of distinct sources actually available.
            int weight_sum = 0;
            for (int a = 0; a < params.max_arity; ++a) weight_sum += params.arity_weights[a];
            int arity = params.max_arity;
            std::int64_t pick = static_cast<std::int64_t>(
                rng.below(static_cast<std::uint64_t>(weight_sum)));
            for (int a = 0; a < params.max_arity; ++a) {
                pick -= params.arity_weights[a];
                if (pick < 0) {
                    arity = a + 1;
                    break;
                }
            }
            arity = static_cast<int>(
                std::min<std::size_t>(static_cast<std::size_t>(arity), sources.size()));

            // Distinct fanins: each pin prefers the previous layer with
            // probability `locality`, falling back to the full source pool;
            // a few duplicate-rejection retries, then a deterministic scan.
            std::vector<nl::cell_id> fanins;
            for (int pin = 0; pin < arity; ++pin) {
                nl::cell_id chosen = nl::k_invalid_cell;
                for (int attempt = 0; attempt < 8; ++attempt) {
                    const bool local =
                        !prev_layer.empty() && rng.chance_mille(locality_mille);
                    const std::vector<nl::cell_id>& pool =
                        local ? prev_layer : sources;
                    const nl::cell_id cand = pool[rng.below(pool.size())];
                    if (std::find(fanins.begin(), fanins.end(), cand) == fanins.end()) {
                        chosen = cand;
                        break;
                    }
                }
                if (chosen == nl::k_invalid_cell) {
                    for (nl::cell_id cand : sources) {
                        if (std::find(fanins.begin(), fanins.end(), cand) ==
                            fanins.end()) {
                            chosen = cand;
                            break;
                        }
                    }
                }
                if (chosen == nl::k_invalid_cell) break;  // pool exhausted
                fanins.push_back(chosen);
            }
            const bf::truth_table fn =
                sample_function(rng, static_cast<int>(fanins.size()), params.mix);
            layer.push_back(nl.add_lut(fn, std::move(fanins)));
        }
        for (nl::cell_id id : layer) sources.push_back(id);
        prev_layer = layer;
        if (!layer.empty()) last_layer = std::move(layer);
    }

    // Close the state loops: every DFF samples a late-layer LUT.
    for (nl::cell_id d : latches) {
        nl.set_dff_input(d, last_layer[rng.below(last_layer.size())]);
    }

    // Primary outputs read the last layer and the state bits, distinct while
    // possible.
    std::vector<nl::cell_id> out_pool = last_layer;
    out_pool.insert(out_pool.end(), latches.begin(), latches.end());
    std::vector<nl::cell_id> taken;
    for (std::size_t i = 0; i < params.num_outputs; ++i) {
        nl::cell_id src = out_pool[rng.below(out_pool.size())];
        if (taken.size() < out_pool.size()) {
            for (int attempt = 0;
                 attempt < 16 &&
                 std::find(taken.begin(), taken.end(), src) != taken.end();
                 ++attempt) {
                src = out_pool[rng.below(out_pool.size())];
            }
            if (std::find(taken.begin(), taken.end(), src) != taken.end()) {
                for (nl::cell_id cand : out_pool) {
                    if (std::find(taken.begin(), taken.end(), cand) == taken.end()) {
                        src = cand;
                        break;
                    }
                }
            }
        }
        taken.push_back(src);
        nl.add_output("out" + std::to_string(i), src);
    }

    // Sink pass: every cell must drive something, or the PL mapping has a
    // token with no consumer.  Unread inputs, LUTs and DFFs get explicit
    // sink ports — deterministic by cell id order.
    std::vector<bool> consumed(nl.num_cells(), false);
    for (const nl::cell& c : nl.cells()) {
        for (nl::cell_id f : c.fanins) consumed[f] = true;
    }
    std::size_t sink = 0;
    const std::size_t cells_before_sinks = nl.num_cells();
    for (nl::cell_id id = 0; id < cells_before_sinks; ++id) {
        if (consumed[id]) continue;
        const nl::cell_kind kind = nl.at(id).kind;
        if (kind == nl::cell_kind::output) continue;
        nl.add_output("sink" + std::to_string(sink++), id);
    }

    nl.validate();
    return nl;
}

}  // namespace plee::wl
