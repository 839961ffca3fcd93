// bench_fleet_scaling — fleet throughput of the sharded runner on synthetic
// workloads, the ROADMAP's netlist-scale benchmark beyond ITC99 sizes.
//
// A batch of generated circuits (all four scenario presets round-robin by
// default) runs through the full synth -> PL-map -> EE -> simulate pipeline
// at 1, 2 and hardware_concurrency() worker threads.  Reported per thread
// level: wall time, netlists/s and trigger-search sweeps/s.  The
// per-circuit results are bit-identical across the levels (asserted here),
// so the scaling numbers measure the runner, not noise.  A job that does not
// end ok in any fleet is named on stderr and the bench exits 1: failed
// jobs' default rows would compare equal across levels.  A final telemetry
// on/off A/B (20 interleaved rounds at one thread, each the ratio of the
// arms' fastest of 3 fleets) reports the median per-round wall ratio with
// its quartiles, and prints "unresolved" when the quartiles are further
// apart than the 2% overhead budget.
//
//   --circuits N   netlists in the fleet                    (default 12)
//   --gates G      LUTs per netlist                         (default 150)
//   --scenario S   datapath-like | control-fsm | wide-adder | random-dag |
//                  mixed                                    (default mixed)
//   --seed S       generator base seed                      (default 1)
//   --vectors V    random vectors per measurement           (default 10)
//   --json PATH    write BENCH_fleet.json for cross-PR perf tracking
//
// N and V must be > 0; a bad value exits 2 naming the flag.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fleet_status.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "rt/atomic_write.hpp"
#include "rt/parse.hpp"
#include "runner/runner.hpp"
#include "workload/workload.hpp"

using namespace plee;

int main(int argc, char** argv) {
    std::size_t circuits = 12;
    std::size_t gates = 150;
    std::string scenario_name = "mixed";
    std::uint64_t seed = 1;
    std::size_t vectors = 10;
    std::string json_path;
    const auto usage = [&] {
        std::fprintf(stderr,
                     "usage: %s [--circuits N] [--gates G] [--scenario S] "
                     "[--seed S] [--vectors V] [--json PATH]\n",
                     argv[0]);
        return 2;
    };
    try {
        if (argc % 2 == 0) return usage();  // every option takes a value
        for (int i = 1; i < argc; i += 2) {
            const char* arg = argv[i];
            const char* v = argv[i + 1];
            if (std::strcmp(arg, "--circuits") == 0) {
                circuits = parse_positive<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--gates") == 0) {
                gates = parse_unsigned<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--scenario") == 0) {
                scenario_name = v;
            } else if (std::strcmp(arg, "--seed") == 0) {
                seed = parse_unsigned<std::uint64_t>(arg, v);
            } else if (std::strcmp(arg, "--vectors") == 0) {
                vectors = parse_positive<std::size_t>(arg, v);
            } else if (std::strcmp(arg, "--json") == 0) {
                json_path = v;
            } else {
                return usage();
            }
        }
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "bench_fleet_scaling: %s\n", e.what());
        return usage();
    }

    try {
        std::vector<runner::fleet_job> jobs;
        for (std::size_t i = 0; i < circuits; ++i) {
            const wl::scenario kind =
                scenario_name == "mixed"
                    ? wl::all_scenarios()[i % wl::all_scenarios().size()]
                    : wl::scenario_from_string(scenario_name);
            const wl::workload_params params =
                wl::scenario_params(kind, gates, seed + i);
            runner::fleet_job job;
            job.id = std::string(wl::to_string(kind)) + "/" + std::to_string(i);
            job.description = job.id;
            job.netlist = wl::generate(params);
            jobs.push_back(std::move(job));
        }

        unsigned hw = std::thread::hardware_concurrency();
        if (hw == 0) hw = 1;
        // Always record 1 and 2 workers (the 2-thread level checks the
        // sharded path even on a single core), plus the full machine.
        std::vector<unsigned> levels = {1, 2};
        if (hw > 2) levels.push_back(hw);

        std::printf("fleet scaling: %zu circuits x %zu gates (%s), %zu vectors\n\n",
                    circuits, gates, scenario_name.c_str(), vectors);
        report::text_table t(
            {"Threads", "Wall (ms)", "Netlists/s", "Sweeps/s", "Speedup"});
        report::json scaling = report::json::array();
        double base_wall = 0.0;
        std::vector<runner::fleet_result> fleets;
        for (unsigned threads : levels) {
            runner::fleet_options opts;
            opts.num_threads = threads;
            opts.experiment.measure.num_vectors = vectors;
            runner::fleet_result fleet = runner::run_fleet(jobs, opts);
            if (bench::report_failed_jobs("bench_fleet_scaling", fleet)) return 1;
            if (threads == 1) base_wall = fleet.wall_ms;
            t.add_row({std::to_string(fleet.threads),
                       report::fmt(fleet.wall_ms, 0),
                       report::fmt(fleet.netlists_per_s(), 2),
                       report::fmt(fleet.sweeps_per_s(), 0),
                       report::fmt(fleet.wall_ms > 0.0 ? base_wall / fleet.wall_ms
                                                       : 0.0,
                                   2) + "x"});
            scaling.push(runner::to_json(fleet, /*include_rows=*/false));
            fleets.push_back(std::move(fleet));
            std::fflush(stdout);
        }
        std::printf("%s\n", t.to_string().c_str());

        // Determinism gate across levels: every circuit's full result — gate
        // counts, both measured delays, sweep count, and the exact list of
        // applied triggers (master, trigger, support, function) — must agree
        // between thread counts.
        const auto rows_identical = [](const report::experiment_row& a,
                                       const report::experiment_row& b) {
            if (a.pl_gates != b.pl_gates || a.ee_gates != b.ee_gates ||
                a.delay_no_ee != b.delay_no_ee || a.delay_ee != b.delay_ee ||
                a.ee_detail.triggers_added != b.ee_detail.triggers_added ||
                a.ee_detail.masters_considered != b.ee_detail.masters_considered ||
                a.ee_detail.applied.size() != b.ee_detail.applied.size()) {
                return false;
            }
            for (std::size_t k = 0; k < a.ee_detail.applied.size(); ++k) {
                const ee::applied_trigger& x = a.ee_detail.applied[k];
                const ee::applied_trigger& y = b.ee_detail.applied[k];
                if (x.master != y.master || x.trigger != y.trigger ||
                    x.candidate.support != y.candidate.support ||
                    x.candidate.function != y.candidate.function) {
                    return false;
                }
            }
            return true;
        };
        for (std::size_t level = 1; level < fleets.size(); ++level) {
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                if (!rows_identical(fleets[0].results[i].row,
                                    fleets[level].results[i].row)) {
                    std::fprintf(stderr,
                                 "DETERMINISM VIOLATION on %s between thread "
                                 "levels %u and %u\n",
                                 fleets[0].results[i].id.c_str(),
                                 fleets[0].threads, fleets[level].threads);
                    return 1;
                }
            }
        }
        std::printf("per-circuit results bit-identical across all %zu thread "
                    "levels.\n",
                    fleets.size());

        // Instrumentation overhead A/B: interleaved telemetry-on / telemetry-
        // off rounds at one worker thread.  The off arm runs the identical
        // pipeline with every span/recorder/histogram hook compiled in but
        // unwired, so the wall-time ratio isolates the cost of *live*
        // instrumentation (budget: <= 2%, see src/obs/README.md).  Each
        // round runs each arm k_ab_repeats times, alternating, and times an
        // arm as the sum over jobs of each job's fastest run, so a disturbed
        // moment costs one job sample rather than deciding the round; the
        // arm that goes first also alternates between rounds, so drift and
        // warm-up cancel instead of folding into the delta.  The median
        // on/off ratio is the estimate; when its quartiles lie further apart
        // than the budget, the host is too noisy to resolve the overhead and
        // the bench says so.
        constexpr int k_ab_rounds = 20;
        constexpr int k_ab_repeats = 3;
        constexpr double k_ab_budget = 0.02;
        std::vector<double> ratios;
        for (int round = 0; round < k_ab_rounds; ++round) {
            std::vector<double> fastest[2];  // per job: [off, on]
            for (int i = 0; i < 2 * k_ab_repeats; ++i) {
                const bool on = (round + i) % 2 == 0;
                runner::fleet_options opts;
                opts.num_threads = 1;
                opts.experiment.measure.num_vectors = vectors;
                opts.telemetry = on;
                const runner::fleet_result fleet = runner::run_fleet(jobs, opts);
                if (bench::report_failed_jobs("bench_fleet_scaling", fleet)) return 1;
                std::vector<double>& best = fastest[on];
                best.resize(fleet.results.size(), 0.0);
                for (std::size_t j = 0; j < best.size(); ++j) {
                    const double ms = fleet.results[j].wall_ms;
                    if (best[j] == 0.0 || ms < best[j]) best[j] = ms;
                }
            }
            double wall[2] = {0.0, 0.0};
            for (int on = 0; on < 2; ++on) {
                for (const double ms : fastest[on]) wall[on] += ms;
            }
            if (wall[0] > 0.0) ratios.push_back(wall[1] / wall[0]);
        }
        std::sort(ratios.begin(), ratios.end());
        // Linear-interpolated quantile of the sorted ratios.
        const auto quantile = [&](double q) {
            if (ratios.empty()) return 1.0;
            const double pos = q * static_cast<double>(ratios.size() - 1);
            const std::size_t lo = static_cast<std::size_t>(pos);
            const std::size_t hi = std::min(lo + 1, ratios.size() - 1);
            return ratios[lo] + (pos - static_cast<double>(lo)) *
                                    (ratios[hi] - ratios[lo]);
        };
        const double ratio_q1 = quantile(0.25);
        const double ratio_median = quantile(0.5);
        const double ratio_q3 = quantile(0.75);
        const bool resolved = ratio_q3 - ratio_q1 <= k_ab_budget;
        const double obs_overhead_pct = 100.0 * (ratio_median - 1.0);
        std::printf("instrumentation overhead (%d interleaved rounds, 1 "
                    "thread): %+.2f%% wall, on/off ratio median %.4f [q1 "
                    "%.4f, q3 %.4f]%s\n",
                    k_ab_rounds, obs_overhead_pct, ratio_median, ratio_q1,
                    ratio_q3,
                    resolved ? ""
                             : " — unresolved: the quartiles are further "
                               "apart than the 2% budget");

        if (!json_path.empty()) {
            report::json root = report::json::object();
            root.set("schema_version",
                     report::json::number(runner::k_fleet_schema_version));
            root.set("bench", report::json::str("fleet_scaling"));
            root.set("circuits", report::json::number(circuits));
            root.set("gates", report::json::number(gates));
            root.set("scenario", report::json::str(scenario_name));
            root.set("seed", report::json::number(static_cast<std::int64_t>(seed)));
            root.set("vectors", report::json::number(vectors));
            root.set("obs_overhead_pct", report::json::number(obs_overhead_pct));
            report::json ab = report::json::object();
            ab.set("rounds", report::json::number(k_ab_rounds));
            ab.set("repeats", report::json::number(k_ab_repeats));
            ab.set("threads", report::json::number(1));
            ab.set("ratio_median", report::json::number(ratio_median));
            ab.set("ratio_q1", report::json::number(ratio_q1));
            ab.set("ratio_q3", report::json::number(ratio_q3));
            ab.set("resolved", report::json::boolean(resolved));
            root.set("obs_overhead", std::move(ab));
            root.set("scaling", std::move(scaling));
            atomic_write_text(json_path, root.dump());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "bench_fleet_scaling: %s\n", e.what());
        return 1;
    }
}
