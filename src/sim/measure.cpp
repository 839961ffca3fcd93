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
        "measure[" + (ctx.label.empty() ? "?" : ctx.label) +
            "]: PL outputs diverge from the synchronous golden model on " +
            std::to_string(mismatched) + " of " + std::to_string(total) +
            " waves");
}

/// The stimulus of a measurement, drawn block by block.  Polls `ctx` before
/// each block with the vectors drawn so far.
std::vector<stimulus_block> draw_stimulus(std::size_t width, const measure_options& options,
                                          const job_context& ctx) {
    stimulus_stream stream(width, options.seed);
    std::vector<stimulus_block> blocks;
    blocks.reserve((options.num_vectors + k_lanes - 1) / k_lanes);
    for (std::size_t drawn = 0; drawn < options.num_vectors; drawn += k_lanes) {
        ctx.poll("sim.stimulus", drawn);
        blocks.push_back(stream.next(std::min(k_lanes, options.num_vectors - drawn)));
    }
    return blocks;
}

/// The golden model's outputs on `blocks` under the `lanes` protocol, one
/// word per output per block: bit L of word b * n + j is output j of
/// vector 64*b + L.  At lanes 1 that vector is wave 64*b + L of one
/// sequential run; at lanes 64 it runs alone from reset.  Lanes past a
/// block's num_vectors are zero.  Polls `ctx` before each block with the
/// vectors done so far, so a deadline stops it within one block.
std::vector<std::uint64_t> run_golden(const nl::netlist& golden,
                                      const std::vector<stimulus_block>& blocks,
                                      std::size_t lanes, const job_context& ctx) {
    const std::vector<nl::cell_id>& outputs = golden.outputs();
    const std::size_t n = outputs.size();
    std::vector<std::uint64_t> expected(blocks.size() * n, 0);
    if (lanes == 1) {
        nl::sync_simulator gold(golden);
        std::vector<bool> inputs;
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            ctx.poll("sim.golden", b * k_lanes);
            const stimulus_block& block = blocks[b];
            for (std::size_t lane = 0; lane < block.num_vectors; ++lane) {
                block.extract(lane, inputs);
                gold.set_inputs(inputs);
                gold.eval();
                for (std::size_t j = 0; j < n; ++j) {
                    expected[b * n + j] |= std::uint64_t{gold.value_of(outputs[j])}
                                           << lane;
                }
                gold.latch();
            }
        }
        return expected;
    }
    nl::sync_lane_simulator gold(golden);
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        ctx.poll("sim.golden", b * k_lanes);
        const stimulus_block& block = blocks[b];
        gold.reset();
        gold.set_inputs(block.words.data(), block.width);
        gold.eval();
        std::uint64_t* words = expected.data() + b * n;
        gold.output_values(words);
        for (std::size_t j = 0; j < n; ++j) words[j] &= block.lane_mask();
    }
    return expected;
}

/// Counts the vectors whose `n` outputs `got` differ from `expected`, both
/// in run_golden's layout.
std::size_t count_mismatches(const std::vector<stimulus_block>& blocks, std::size_t n,
                             const std::vector<std::uint64_t>& expected,
                             const std::vector<std::uint64_t>& got) {
    std::size_t mismatched = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        std::uint64_t diff = 0;
        for (std::size_t j = 0; j < n; ++j) diff |= got[b * n + j] ^ expected[b * n + j];
        mismatched += static_cast<std::size_t>(std::popcount(diff & blocks[b].lane_mask()));
    }
    return mismatched;
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

/// The measurement: checks, draw, golden run, one compile, one run and one
/// golden comparison.  Both arms, unflushed.
measure_arms measure_planes(const pl::pl_netlist& pl, const nl::netlist* golden,
                            const measure_options& options, const job_context& ctx) {
    if (golden != nullptr && golden->inputs().size() != pl.sources().size()) {
        throw std::invalid_argument(
            "measure: golden model has " + std::to_string(golden->inputs().size()) +
            " inputs, netlist " + std::to_string(pl.sources().size()) + " sources");
    }
    if (golden != nullptr && golden->outputs().size() != pl.sinks().size()) {
        throw std::invalid_argument(
            "measure: golden model has " + std::to_string(golden->outputs().size()) +
            " outputs, netlist " + std::to_string(pl.sinks().size()) + " sinks");
    }
    if (options.lanes != 1 && options.lanes != k_lanes) {
        throw std::invalid_argument("measure: lanes must be 1 or 64");
    }
    // An average over no vectors is not a measurement: without this check
    // the run "succeeds" with a 0 ns delay and nothing verified.
    if (options.num_vectors == 0) {
        throw std::invalid_argument("measure: num_vectors must be > 0");
    }

    const std::vector<stimulus_block> blocks =
        draw_stimulus(pl.sources().size(), options, ctx);
    std::vector<std::uint64_t> expected;
    if (golden != nullptr) {
        const obs::scoped_span span(ctx.trace, "sim.golden");
        expected = run_golden(*golden, blocks, options.lanes, ctx);
    }
    pl_simulator simulator = [&] {
        const obs::scoped_span span(ctx.trace, "sim.compile");
        return pl_simulator(pl, options.sim, ctx);
    }();

    // One run reads both time planes into the arms, and the PL outputs into
    // run_golden's layout.
    measure_arms arms;
    const std::size_t n = pl.sinks().size();
    const auto timed_run = [&](auto run) {
        const obs::scoped_span span(ctx.trace, "sim.run");
        const wall_timer timer;
        auto result = run();
        arms.ee.sim_wall_ms = timer.elapsed_ms();
        return result;
    };
    std::vector<std::uint64_t> outputs;
    arms.plain.delays.reserve(options.num_vectors);
    arms.ee.delays.reserve(options.num_vectors);
    if (options.lanes == 1) {
        const std::vector<wave_record> waves =
            timed_run([&] { return simulator.run_packed(blocks); });
        outputs.assign(blocks.size() * n, 0);
        for (std::size_t w = 0; w < waves.size(); ++w) {
            for (std::size_t j = 0; j < n; ++j) {
                outputs[(w / k_lanes) * n + j] |=
                    std::uint64_t{waves[w].outputs[j]} << (w % k_lanes);
            }
            arms.ee.delays.push_back(waves[w].delay());
            arms.plain.delays.push_back(waves[w].plain_delay());
        }
    } else {
        for (const lane_block_result& r :
             timed_run([&] { return simulator.run_lanes(blocks); })) {
            outputs.insert(outputs.end(), r.outputs.begin(), r.outputs.end());
            arms.ee.delays.insert(arms.ee.delays.end(), r.output_stable.begin(),
                                  r.output_stable.begin() + r.num_vectors);
            arms.plain.delays.insert(arms.plain.delays.end(), r.num_vectors,
                                     r.plain_output_stable);
        }
    }
    arms.ee.stats = simulator.stats();
    arms.plain.stats = simulator.plain_stats();

    // The planes share their values, so one comparison checks both arms.
    if (golden != nullptr) {
        const std::size_t mismatched = count_mismatches(blocks, n, expected, outputs);
        if (mismatched > 0) throw_mismatch(ctx, mismatched, arms.ee.delays.size());
    }
    arms.plain.sim_wall_ms = arms.ee.sim_wall_ms;
    summarize(arms.plain, ctx.telemetry);
    summarize(arms.ee, ctx.telemetry);
    return arms;
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

measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const nl::netlist* golden,
                                     const measure_options& options,
                                     const job_context& ctx) {
    measure_arms arms = measure_planes(pl, golden, options, ctx);
    if (ctx.telemetry) flush({&arms.ee}, arms.ee.sim_wall_ms);
    return std::move(arms.ee);
}

measure_arms measure_both_arms(const pl::pl_netlist& pl, const nl::netlist* golden,
                               const measure_options& options,
                               const job_context& ctx) {
    measure_arms arms = measure_planes(pl, golden, options, ctx);
    if (ctx.telemetry) flush({&arms.plain, &arms.ee}, arms.ee.sim_wall_ms);
    return arms;
}

}  // namespace plee::sim
