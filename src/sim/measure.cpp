#include "sim/measure.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <initializer_list>
#include <stdexcept>
#include <utility>

#include "netlist/sync_sim.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "rt/errors.hpp"
#include "rt/wall_timer.hpp"

namespace plee::sim {

namespace {

[[noreturn]] void throw_mismatch(const job_context& ctx, std::size_t mismatched,
                                 std::size_t total) {
    throw plee_error(
        "measure_average_delay[" + (ctx.label.empty() ? "?" : ctx.label) +
            "]: PL outputs diverge from the synchronous golden model on " +
            std::to_string(mismatched) + " of " + std::to_string(total) +
            " waves");
}

/// Counts the vectors whose outputs differ from the reference's golden
/// outputs; `got` has the layout of measure_reference::expected.
std::size_t count_mismatches(const measure_reference& reference,
                             const std::vector<std::uint64_t>& got) {
    std::size_t mismatched = 0;
    const std::size_t n = reference.num_outputs;
    for (std::size_t b = 0; b < reference.blocks.size(); ++b) {
        std::uint64_t diff = 0;
        for (std::size_t j = 0; j < n; ++j) {
            diff |= got[b * n + j] ^ reference.expected[b * n + j];
        }
        mismatched += static_cast<std::size_t>(
            std::popcount(diff & reference.blocks[b].lane_mask()));
    }
    return mismatched;
}

/// Compiles pl's wave schedule inside a sim.compile span.
pl_simulator compile_simulator(const pl::pl_netlist& pl, const measure_options& options,
                               const job_context& ctx) {
    const obs::scoped_span span(ctx.trace, "sim.compile");
    return pl_simulator(pl, options.sim, ctx);
}

/// Adds every counter of `s` to `total`.
void add_stats(sim_run_stats& total, const sim_run_stats& s) {
    total.events += s.events;
    total.firings += s.firings;
    total.ee_hits += s.ee_hits;
    total.ee_misses += s.ee_misses;
    total.ee_wins += s.ee_wins;
    total.lane_blocks += s.lane_blocks;
    total.lane_vectors += s.lane_vectors;
    total.lane_splits += s.lane_splits;
    total.lane_slab_deposits += s.lane_slab_deposits;
}

/// Sequential-wave protocol: one run over all vectors.  Both protocols
/// read both time planes into the arms and pack the PL outputs like
/// measure_reference::expected into `outputs`.
void measure_serial(const pl::pl_netlist& pl, const measure_reference& reference,
                    const measure_options& options, const job_context& ctx,
                    measure_arms& arms, std::vector<std::uint64_t>& outputs) {
    pl_simulator simulator = compile_simulator(pl, options, ctx);
    std::vector<wave_record> waves;
    {
        const obs::scoped_span span(ctx.trace, "sim.run");
        const wall_timer timer;
        waves = simulator.run_packed(reference.blocks);
        arms.ee.sim_wall_ms = timer.elapsed_ms();
    }
    arms.ee.stats = simulator.stats();
    arms.plain.stats = simulator.plain_stats();

    const std::size_t n = pl.sinks().size();
    outputs.assign(reference.blocks.size() * n, 0);
    for (std::size_t w = 0; w < waves.size(); ++w) {
        for (std::size_t j = 0; j < n; ++j) {
            outputs[(w / k_lanes) * n + j] |=
                std::uint64_t{waves[w].outputs[j]} << (w % k_lanes);
        }
    }

    arms.ee.delays.reserve(waves.size());
    arms.plain.delays.reserve(waves.size());
    for (const wave_record& w : waves) {
        arms.ee.delays.push_back(w.delay());
        arms.plain.delays.push_back(w.plain_delay());
    }
}

/// Lane-parallel protocol: 64 independent single-vector runs per block.
void measure_lanes(const pl::pl_netlist& pl, const measure_reference& reference,
                   const measure_options& options, const job_context& ctx,
                   measure_arms& arms, std::vector<std::uint64_t>& outputs) {
    pl_simulator simulator = compile_simulator(pl, options, ctx);
    std::vector<lane_block_result> lane_results;
    lane_results.reserve(reference.blocks.size());
    {
        const obs::scoped_span span(ctx.trace, "sim.run");
        const wall_timer timer;
        for (const stimulus_block& block : reference.blocks) {
            lane_results.push_back(simulator.run_lanes(block));
            add_stats(arms.ee.stats, simulator.stats());
            add_stats(arms.plain.stats, simulator.plain_stats());
        }
        arms.ee.sim_wall_ms = timer.elapsed_ms();
    }

    for (const lane_block_result& r : lane_results) {
        outputs.insert(outputs.end(), r.outputs.begin(), r.outputs.end());
        for (std::size_t lane = 0; lane < r.num_vectors; ++lane) {
            arms.ee.delays.push_back(r.delay(lane));
            arms.plain.delays.push_back(r.plain_delay(lane));
        }
    }
}

/// The delay statistics of one arm, and with telemetry its distribution.
void summarize(measure_result& result, bool telemetry) {
    double sum = 0.0;
    double sum_sq = 0.0;
    result.min_delay = result.delays.empty() ? 0.0 : result.delays.front();
    result.max_delay = result.min_delay;
    for (const double d : result.delays) {
        sum += d;
        sum_sq += d * d;
        result.min_delay = std::min(result.min_delay, d);
        result.max_delay = std::max(result.max_delay, d);
    }
    if (!result.delays.empty()) {
        const double n = static_cast<double>(result.delays.size());
        result.avg_delay = sum / n;
        const double variance =
            std::max(0.0, sum_sq / n - result.avg_delay * result.avg_delay);
        result.stddev = std::sqrt(variance);
    }
    if (telemetry) {
        for (const double d : result.delays) {
            result.delay_hist.record(
                d <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(d * 1e3)));
        }
    }
}

/// Adds each arm's counts and delay distribution and the run's wall time to
/// the registry.  The flush happens once per measurement, off the
/// simulator's hot path: the per-event cost of telemetry is zero.
void flush(std::initializer_list<const measure_result*> arms, double sim_wall_ms) {
    static obs::counter& events = obs::registry::global().get_counter("sim.events");
    static obs::counter& firings = obs::registry::global().get_counter("sim.firings");
    static obs::counter& vectors = obs::registry::global().get_counter("sim.vectors");
    static obs::counter& ee_hits = obs::registry::global().get_counter("sim.ee.hits");
    static obs::counter& ee_misses =
        obs::registry::global().get_counter("sim.ee.misses");
    static obs::counter& ee_wins = obs::registry::global().get_counter("sim.ee.wins");
    static obs::counter& slab_deposits =
        obs::registry::global().get_counter("sim.lane_slab_deposits");
    static obs::histogram& delay_hist =
        obs::registry::global().get_histogram("sim.vector_delay_ps");
    static obs::histogram& wall_hist =
        obs::registry::global().get_histogram("sim.measure_wall_us");
    for (const measure_result* arm : arms) {
        events.add(arm->stats.events);
        firings.add(arm->stats.firings);
        vectors.add(arm->delays.size());
        ee_hits.add(arm->stats.ee_hits);
        ee_misses.add(arm->stats.ee_misses);
        ee_wins.add(arm->stats.ee_wins);
        slab_deposits.add(arm->stats.lane_slab_deposits);
        delay_hist.merge(arm->delay_hist);
    }
    wall_hist.record(sim_wall_ms <= 0.0
                         ? 0
                         : static_cast<std::uint64_t>(std::llround(sim_wall_ms * 1e3)));
}

/// One compile, one run and one golden comparison: both arms, unflushed.
measure_arms measure_planes(const pl::pl_netlist& pl, const measure_reference& reference,
                            const measure_options& options, const job_context& ctx) {
    if (reference.width != pl.sources().size()) {
        throw std::invalid_argument(
            "measure_average_delay: reference width " +
            std::to_string(reference.width) + " != " +
            std::to_string(pl.sources().size()) + " sources");
    }
    if (reference.lanes != options.lanes) {
        throw std::invalid_argument(
            "measure_average_delay: reference built for lanes " +
            std::to_string(reference.lanes) + ", measuring lanes " +
            std::to_string(options.lanes));
    }
    if (reference.golden && reference.num_outputs != pl.sinks().size()) {
        throw std::invalid_argument(
            "measure_average_delay: golden model has " +
            std::to_string(reference.num_outputs) + " outputs, netlist " +
            std::to_string(pl.sinks().size()) + " sinks");
    }

    measure_arms arms;
    std::vector<std::uint64_t> outputs;
    if (options.lanes == 1) {
        measure_serial(pl, reference, options, ctx, arms, outputs);
    } else {
        measure_lanes(pl, reference, options, ctx, arms, outputs);
    }
    // The planes share their values, so one comparison checks both arms.
    if (reference.golden) {
        const std::size_t mismatched = count_mismatches(reference, outputs);
        if (mismatched > 0) throw_mismatch(ctx, mismatched, arms.ee.delays.size());
    }
    arms.plain.sim_wall_ms = arms.ee.sim_wall_ms;
    for (measure_result* arm : {&arms.plain, &arms.ee}) {
        arm->lanes = options.lanes;
        summarize(*arm, ctx.telemetry);
    }
    return arms;
}

/// The golden model's outputs on the reference's stimulus, in its layout.
/// Polls `ctx` before each block with the vectors done so far, so a
/// deadline stops it within one block.
void run_golden(const nl::netlist& golden, const job_context& ctx,
                measure_reference& reference) {
    const std::vector<nl::cell_id>& outputs = golden.outputs();
    const std::size_t n = outputs.size();
    reference.golden = true;
    reference.num_outputs = n;
    reference.expected.assign(reference.blocks.size() * n, 0);
    if (reference.lanes == 1) {
        nl::sync_simulator gold(golden);
        std::vector<bool> inputs;
        for (std::size_t b = 0; b < reference.blocks.size(); ++b) {
            ctx.poll("sim.golden", b * k_lanes);
            const stimulus_block& block = reference.blocks[b];
            for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
                block.extract(lane, inputs);
                gold.set_inputs(inputs);
                gold.eval();
                for (std::size_t j = 0; j < n; ++j) {
                    reference.expected[b * n + j] |=
                        std::uint64_t{gold.value_of(outputs[j])} << lane;
                }
                gold.latch();
            }
        }
        return;
    }
    nl::sync_lane_simulator gold(golden);
    for (std::size_t b = 0; b < reference.blocks.size(); ++b) {
        ctx.poll("sim.golden", b * k_lanes);
        const stimulus_block& block = reference.blocks[b];
        gold.reset();
        gold.set_inputs(block.words.data(), block.width);
        gold.eval();
        std::uint64_t* expected = reference.expected.data() + b * n;
        gold.output_values(expected);
        for (std::size_t j = 0; j < n; ++j) expected[j] &= block.lane_mask();
    }
}

}  // namespace

std::vector<std::vector<bool>> random_vectors(std::size_t count, std::size_t width,
                                              std::uint64_t seed) {
    const std::vector<stimulus_block> blocks = make_stimulus(count, width, seed);
    std::vector<std::vector<bool>> vectors(count);
    for (std::size_t v = 0; v < count; ++v) {
        blocks[v / k_lanes].extract(v % k_lanes, vectors[v]);
    }
    return vectors;
}

measure_reference make_measure_reference(const nl::netlist* golden,
                                         std::size_t width,
                                         const measure_options& options,
                                         const job_context& ctx) {
    if (options.lanes != 1 && options.lanes != k_lanes) {
        throw std::invalid_argument(
            "make_measure_reference: lanes must be 1 or 64");
    }
    // An average over no vectors is not a measurement: without this check
    // the run "succeeds" with a 0 ns delay and nothing verified.
    if (options.num_vectors == 0) {
        throw std::invalid_argument(
            "make_measure_reference: num_vectors must be > 0");
    }
    if (golden != nullptr && golden->inputs().size() != width) {
        throw std::invalid_argument(
            "make_measure_reference: width " + std::to_string(width) +
            " != " + std::to_string(golden->inputs().size()) +
            " golden inputs");
    }
    measure_reference reference;
    reference.lanes = options.lanes;
    reference.width = width;
    stimulus_stream stream(width, options.seed);
    reference.blocks.reserve((options.num_vectors + k_lanes - 1) / k_lanes);
    for (std::size_t drawn = 0; drawn < options.num_vectors; drawn += k_lanes) {
        ctx.poll("sim.stimulus", drawn);
        reference.blocks.push_back(
            stream.next(std::min(k_lanes, options.num_vectors - drawn)));
    }
    if (golden != nullptr) {
        const obs::scoped_span span(ctx.trace, "sim.golden");
        run_golden(*golden, ctx, reference);
    }
    return reference;
}

measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const nl::netlist* golden,
                                     const measure_options& options,
                                     const job_context& ctx) {
    return measure_average_delay(
        pl, make_measure_reference(golden, pl.sources().size(), options, ctx),
        options, ctx);
}

measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const measure_reference& reference,
                                     const measure_options& options,
                                     const job_context& ctx) {
    measure_arms arms = measure_planes(pl, reference, options, ctx);
    if (ctx.telemetry) flush({&arms.ee}, arms.ee.sim_wall_ms);
    return std::move(arms.ee);
}

measure_arms measure_both_arms(const pl::pl_netlist& pl,
                               const measure_reference& reference,
                               const measure_options& options,
                               const job_context& ctx) {
    measure_arms arms = measure_planes(pl, reference, options, ctx);
    if (ctx.telemetry) flush({&arms.plain, &arms.ee}, arms.ee.sim_wall_ms);
    return arms;
}

}  // namespace plee::sim
