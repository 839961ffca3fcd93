#include "sim/measure.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "netlist/sync_sim.hpp"
#include "obs/registry.hpp"
#include "rt/errors.hpp"
#include "rt/wall_timer.hpp"

namespace plee::sim {

namespace {

[[noreturn]] void throw_mismatch(const measure_options& options,
                                 std::size_t mismatched, std::size_t total) {
    throw plee_error(
        "measure_average_delay[" +
            (options.sim.label.empty() ? "?" : options.sim.label) +
            "]: PL outputs diverge from the synchronous golden model on " +
            std::to_string(mismatched) + " of " + std::to_string(total) +
            " waves",
        failure_class::permanent);
}

/// Sequential-wave protocol: one run over all vectors, golden-checked
/// against the scalar synchronous model wave by wave.
void measure_serial(const pl::pl_netlist& pl, const nl::netlist* golden,
                    const measure_options& options,
                    const std::vector<stimulus_block>& blocks,
                    measure_result& result) {
    pl_simulator simulator(pl, options.sim);
    std::vector<wave_record> waves;
    {
        const obs::scoped_span span(options.trace, "sim.run");
        const wall_timer timer;
        waves = simulator.run_packed(blocks);
        result.sim_wall_ms = timer.elapsed_ms();
    }
    result.stats = simulator.stats();

    if (golden != nullptr) {
        const obs::scoped_span span(options.trace, "sim.golden");
        nl::sync_simulator gold(*golden);
        std::vector<bool> inputs;
        for (std::size_t w = 0; w < waves.size(); ++w) {
            blocks[w / k_lanes].extract(w % k_lanes, inputs);
            gold.set_inputs(inputs);
            gold.eval();
            if (!gold.outputs_equal(waves[w].outputs)) ++result.mismatched_waves;
            gold.latch();
        }
        if (result.mismatched_waves > 0 && options.require_functional_match) {
            throw_mismatch(options, result.mismatched_waves, waves.size());
        }
    }

    result.delays.reserve(waves.size());
    for (const wave_record& w : waves) result.delays.push_back(w.delay());
}

/// Lane-parallel protocol: 64 independent single-vector runs per block,
/// golden-checked against the 64-lane synchronous model word-wide.
void measure_lanes(const pl::pl_netlist& pl, const nl::netlist* golden,
                   const measure_options& options,
                   const std::vector<stimulus_block>& blocks,
                   measure_result& result) {
    pl_simulator simulator(pl, options.sim);
    std::vector<lane_block_result> lane_results;
    lane_results.reserve(blocks.size());
    sim_run_stats total{};
    {
        const obs::scoped_span span(options.trace, "sim.run");
        const wall_timer timer;
        for (const stimulus_block& block : blocks) {
            lane_results.push_back(simulator.run_lanes(block));
            const sim_run_stats& s = simulator.stats();
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
        result.sim_wall_ms = timer.elapsed_ms();
    }
    result.stats = total;

    if (golden != nullptr) {
        const obs::scoped_span span(options.trace, "sim.golden");
        nl::sync_lane_simulator gold(*golden);
        std::vector<std::uint64_t> expected(golden->outputs().size());
        std::size_t mismatched = 0;
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            gold.reset();
            gold.set_inputs(blocks[b].words.data(), blocks[b].width);
            gold.eval();
            gold.output_values(expected.data());
            std::uint64_t diff = 0;
            const std::uint64_t mask = blocks[b].lane_mask();
            for (std::size_t j = 0; j < expected.size(); ++j) {
                diff |= (lane_results[b].outputs[j] ^ expected[j]) & mask;
            }
            mismatched += static_cast<std::size_t>(std::popcount(diff));
        }
        result.mismatched_waves = mismatched;
        if (mismatched > 0 && options.require_functional_match) {
            throw_mismatch(options, mismatched, options.num_vectors);
        }
    }

    result.delays.reserve(options.num_vectors);
    for (const lane_block_result& r : lane_results) {
        for (std::size_t lane = 0; lane < r.num_vectors; ++lane) {
            result.delays.push_back(r.delay(lane));
        }
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

measure_result measure_average_delay(const pl::pl_netlist& pl,
                                     const nl::netlist* golden,
                                     const measure_options& options) {
    if (options.lanes != 1 && options.lanes != k_lanes) {
        throw std::invalid_argument(
            "measure_average_delay: lanes must be 1 or 64");
    }
    // An average over no vectors is not a measurement: without this check
    // the run "succeeds" with a 0 ns delay and nothing verified.
    if (options.num_vectors == 0) {
        throw std::invalid_argument(
            "measure_average_delay: num_vectors must be > 0");
    }
    const std::vector<stimulus_block> blocks =
        make_stimulus(options.num_vectors, pl.sources().size(), options.seed);

    measure_result result;
    result.lanes = options.lanes;
    if (options.lanes == 1) {
        measure_serial(pl, golden, options, blocks, result);
    } else {
        measure_lanes(pl, golden, options, blocks, result);
    }

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

    if (options.telemetry) {
        // Distribution + registry flush happen once per measurement, off the
        // simulator's hot path: the per-event cost of telemetry is zero.
        for (const double d : result.delays) {
            result.delay_hist.record(
                d <= 0.0 ? 0 : static_cast<std::uint64_t>(std::llround(d * 1e3)));
        }
        static obs::counter& events =
            obs::registry::global().get_counter("sim.events");
        static obs::counter& firings =
            obs::registry::global().get_counter("sim.firings");
        static obs::counter& vectors =
            obs::registry::global().get_counter("sim.vectors");
        static obs::counter& ee_hits =
            obs::registry::global().get_counter("sim.ee.hits");
        static obs::counter& ee_misses =
            obs::registry::global().get_counter("sim.ee.misses");
        static obs::counter& ee_wins =
            obs::registry::global().get_counter("sim.ee.wins");
        static obs::histogram& delay_hist =
            obs::registry::global().get_histogram("sim.vector_delay_ps");
        static obs::histogram& wall_hist =
            obs::registry::global().get_histogram("sim.measure_wall_us");
        static obs::counter& slab_deposits =
            obs::registry::global().get_counter("sim.lane_slab_deposits");
        events.add(result.stats.events);
        firings.add(result.stats.firings);
        vectors.add(result.delays.size());
        ee_hits.add(result.stats.ee_hits);
        ee_misses.add(result.stats.ee_misses);
        ee_wins.add(result.stats.ee_wins);
        slab_deposits.add(result.stats.lane_slab_deposits);
        delay_hist.merge(result.delay_hist);
        wall_hist.record(result.sim_wall_ms <= 0.0
                             ? 0
                             : static_cast<std::uint64_t>(
                                   std::llround(result.sim_wall_ms * 1e3)));
    }
    return result;
}

}  // namespace plee::sim
