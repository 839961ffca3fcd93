// plee_fleet — command-line driver for the sharded multi-netlist runner.
//
//   plee_fleet --circuits 8 --scenario datapath-like   synthetic fleet
//   plee_fleet --circuits itc99                        the full Table 3 suite
//   plee_fleet --circuits b05,b07,b10                  selected benchmarks
//
// Options:
//   --circuits X   fleet contents: a count (synthetic workloads), "itc99",
//                  or a comma-separated list of benchmark ids  (default 8)
//   --scenario S   synthetic scenario preset: random-dag | datapath-like |
//                  control-fsm | wide-adder | lut6-dag | lut8-datapath |
//                  mixed                                      (default mixed)
//   --gates G      LUTs per synthetic netlist                 (default 150)
//   --seed S       generator + stimulus seed                  (default fixed)
//   --threads N    worker pool size, 0 = hardware_concurrency (default 0)
//   --vectors V    random vectors per measurement             (default 20)
//   --lanes L      stimulus lanes per engine pass: 1 | 64     (default 1)
//                  (1 = the sequential-wave protocol on the dataflow
//                  engine, 64 = independent vectors on the lane engine)
//   --delays D     delay model: default | tie (all components 1.0 — the
//                  lane-divergence stressor: every EE race is a tie)
//   --json PATH    write the fleet result (summary + rows) as JSON
//
// Numeric values must parse whole (no sign on counts, no trailing
// characters; durations finite and >= 0) and --vectors must be > 0; a bad
// value is a usage error naming the flag (exit 1).
//
// Failures (see src/runner/README.md): each job runs once and ends ok,
// failed, timed_out or budget_exhausted.
//   --job-deadline-ms MS   per-job wall-clock deadline (0 = none)
//
// Telemetry (see src/obs/README.md and docs/schemas.md):
//   --metrics-out PATH     write the process metrics registry as Prometheus
//                          text exposition after the fleet completes
//   --trace-out PATH       write a JSONL telemetry stream: one record per
//                          job (stage spans; flight-recorder dump for non-ok
//                          jobs) plus one final registry-snapshot record
//   --no-telemetry         run with telemetry compiled in but unwired (the
//                          baseline arm of the overhead A/B)
//
// Every circuit runs the full synth -> PL-map -> EE -> simulate pipeline
// with golden-model verification.  Exit status: 0 = every job ok,
// 2 = fleet completed but some jobs did not end ok (partial results) or
// the run was interrupted, 1 = fatal (bad arguments, internal error).
//
// SIGINT/SIGTERM: the first signal trips a fleet-wide cancel token —
// in-flight jobs stop at their next cooperative poll, queued jobs never
// start — and the partial results plus every requested sink (--json,
// --metrics-out, --trace-out) are still flushed through the atomic-rename
// path before exiting 2.  A second signal hard-exits immediately (status
// 130).

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "obs/registry.hpp"
#include "obs/sink.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "rt/atomic_write.hpp"
#include "rt/cancel.hpp"
#include "rt/parse.hpp"
#include "runner/runner.hpp"
#include "sim/measure.hpp"
#include "workload/workload.hpp"

using namespace plee;

namespace {

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s [--circuits N|itc99|bXX,bYY] [--scenario S|mixed]\n"
        "       [--gates G] [--seed S] [--threads N] [--vectors V]\n"
        "       [--lanes 1|64] [--delays default|tie]\n"
        "       [--job-deadline-ms MS] [--json PATH]\n"
        "       [--metrics-out PATH] [--trace-out PATH] [--no-telemetry]\n",
        argv0);
}

/// Fleet-wide interrupt: the first SIGINT/SIGTERM trips the cancel token
/// (one atomic store — async-signal-safe) and the main path finishes with
/// partial results + flushed sinks; a second signal hard-exits.
cancel_token g_interrupt;
std::atomic<int> g_signal_count{0};

extern "C" void on_signal(int) {
    if (g_signal_count.fetch_add(1, std::memory_order_relaxed) == 0) {
        g_interrupt.cancel();
    } else {
        ::_exit(130);
    }
}

bool interrupted() {
    return g_signal_count.load(std::memory_order_relaxed) > 0;
}

/// The --trace-out JSONL stream: one "job" record per job, one trailing
/// "metrics" record with the registry snapshot.
std::string trace_jsonl(const runner::fleet_result& fleet) {
    std::string out;
    for (const runner::job_result& r : fleet.results) {
        report::json rec = report::json::object();
        rec.set("type", report::json::str("job"));
        rec.set("id", report::json::str(r.id));
        rec.set("status", report::json::str(runner::to_string(r.status)));
        rec.set("wall_ms", report::json::number(r.wall_ms));
        if (!r.error.empty()) rec.set("error", report::json::str(r.error));
        rec.set("spans", obs::spans_to_json(r.spans));
        if (!r.flight.empty()) {
            rec.set("flight_recorder", obs::flight_to_json(r.flight));
        }
        out += rec.dump_compact();
        out += '\n';
    }
    report::json rec = report::json::object();
    rec.set("type", report::json::str("metrics"));
    rec.set("metrics",
            obs::metrics_to_json(obs::registry::global().snapshot()));
    out += rec.dump_compact();
    out += '\n';
    return out;
}

std::vector<std::string> split_ids(const std::string& list) {
    std::vector<std::string> ids;
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::size_t end = comma == std::string::npos ? list.size() : comma;
        if (end > pos) ids.push_back(list.substr(pos, end - pos));
        if (comma == std::string::npos) break;
        pos = comma + 1;
    }
    return ids;
}

}  // namespace

int main(int argc, char** argv) {
    std::string circuits = "8";
    std::string scenario_name = "mixed";
    std::size_t gates = 150;
    std::uint64_t seed = sim::measure_options{}.seed;
    bool seed_given = false;
    unsigned threads = 0;
    std::size_t vectors = 20;
    bool tie_delays = false;
    std::size_t lanes = 1;
    std::string json_path;
    std::string metrics_path;
    std::string trace_path;
    bool telemetry = true;
    double job_deadline_ms = 0.0;
    try {
        for (int i = 1; i < argc; ++i) {
            const char* arg = argv[i];
            // Every option but the switches takes a value.
            auto value = [&]() -> std::string {
                if (i + 1 >= argc) {
                    throw std::invalid_argument(std::string(arg) +
                                                ": missing value");
                }
                return argv[++i];
            };
            if (std::strcmp(arg, "--circuits") == 0) {
                circuits = value();
            } else if (std::strcmp(arg, "--scenario") == 0) {
                scenario_name = value();
            } else if (std::strcmp(arg, "--gates") == 0) {
                gates = parse_unsigned<std::size_t>(arg, value());
            } else if (std::strcmp(arg, "--seed") == 0) {
                seed = parse_unsigned<std::uint64_t>(arg, value());
                seed_given = true;
            } else if (std::strcmp(arg, "--threads") == 0) {
                threads = parse_unsigned<unsigned>(arg, value());
            } else if (std::strcmp(arg, "--vectors") == 0) {
                vectors = parse_positive<std::size_t>(arg, value());
            } else if (std::strcmp(arg, "--lanes") == 0) {
                lanes = parse_unsigned<std::size_t>(arg, value());
                if (lanes != 1 && lanes != sim::k_lanes) {
                    throw std::invalid_argument("--lanes: must be 1 or 64");
                }
            } else if (std::strcmp(arg, "--delays") == 0) {
                const std::string v = value();
                if (v == "tie") {
                    tie_delays = true;
                } else if (v != "default") {
                    throw std::invalid_argument("--delays: expected default or "
                                                "tie, got '" + v + "'");
                }
            } else if (std::strcmp(arg, "--job-deadline-ms") == 0) {
                job_deadline_ms = parse_non_negative(arg, value());
            } else if (std::strcmp(arg, "--json") == 0) {
                json_path = value();
            } else if (std::strcmp(arg, "--metrics-out") == 0) {
                metrics_path = value();
            } else if (std::strcmp(arg, "--trace-out") == 0) {
                trace_path = value();
            } else if (std::strcmp(arg, "--no-telemetry") == 0) {
                telemetry = false;
            } else {
                throw std::invalid_argument(std::string("unknown option ") + arg);
            }
        }
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "plee_fleet: %s\n", e.what());
        usage(argv[0]);
        return 1;
    }

    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    try {
        std::vector<runner::fleet_job> jobs;
        const bool synthetic =
            !circuits.empty() &&
            circuits.find_first_not_of("0123456789") == std::string::npos;
        if (synthetic) {
            const std::size_t count =
                parse_positive<std::size_t>("--circuits", circuits);
            // The generator seed defaults to a small fixed value; the large
            // fixed stimulus seed stays on the measurement side.
            const std::uint64_t gen_seed = seed_given ? seed : 1;
            for (std::size_t i = 0; i < count; ++i) {
                const wl::scenario kind =
                    scenario_name == "mixed"
                        ? wl::all_scenarios()[i % wl::all_scenarios().size()]
                        : wl::scenario_from_string(scenario_name);
                runner::fleet_job job;
                job.id = std::string(wl::to_string(kind)) + "/" + std::to_string(i);
                job.description = job.id;
                job.netlist =
                    wl::generate(wl::scenario_params(kind, gates, gen_seed + i));
                jobs.push_back(std::move(job));
            }
        } else {
            std::vector<std::string> ids;
            if (circuits == "itc99") {
                for (const bench::benchmark_info& info : bench::itc99_suite()) {
                    ids.push_back(info.id);
                }
            } else {
                ids = split_ids(circuits);
            }
            for (const std::string& id : ids) {
                runner::fleet_job job;
                job.id = id;
                job.description = id;
                job.netlist = bench::build_benchmark(id);
                jobs.push_back(std::move(job));
            }
        }

        runner::fleet_options opts;
        opts.num_threads = threads;
        opts.job_deadline_ms = job_deadline_ms;
        opts.experiment.measure.num_vectors = vectors;
        opts.experiment.measure.lanes = lanes;
        if (tie_delays) {
            // Every delay component equal: all EE races tie, so mixed efire
            // words (and thus divergent lane times) are as frequent as the
            // stimulus allows.
            opts.experiment.measure.sim.delays = {1.0, 1.0, 1.0, 1.0, 1.0};
        }
        opts.telemetry = telemetry;
        if (seed_given) opts.experiment.measure.seed = seed;
        opts.fleet_cancel = &g_interrupt;
        const runner::fleet_result fleet = runner::run_fleet(jobs, opts);

        report::text_table t({"Circuit", "Status", "PL Gates", "EE Gates",
                              "Delay (ns)", "Delay EE (ns)", "% Delay Decr.",
                              "Wall (ms)"});
        for (const runner::job_result& r : fleet.results) {
            t.add_row({r.id, runner::to_string(r.status),
                       std::to_string(r.row.pl_gates),
                       std::to_string(r.row.ee_gates),
                       report::fmt(r.row.delay_no_ee, 1),
                       report::fmt(r.row.delay_ee, 1),
                       report::fmt(r.row.delay_decrease_pct, 0) + "%",
                       report::fmt(r.wall_ms, 1)});
            if (!r.error.empty()) {
                std::fprintf(stderr, "plee_fleet: %s: %s\n", r.id.c_str(),
                             r.error.c_str());
            }
        }
        std::printf("%s\n", t.to_string().c_str());
        std::printf("fleet: %zu netlists, %u threads, %.0f ms wall, %.2f "
                    "netlists/s, %.0f sweeps/s\n",
                    fleet.results.size(), fleet.threads, fleet.wall_ms,
                    fleet.netlists_per_s(), fleet.sweeps_per_s());
        std::printf("status: %zu ok, %zu failed, %zu timed out, %zu budget "
                    "exhausted\n",
                    fleet.jobs_ok, fleet.jobs_failed, fleet.jobs_timed_out,
                    fleet.jobs_budget_exhausted);
        std::printf("simulator (%s engine, %zu lanes): %llu events in %.0f ms "
                    "of summed shard time = %.0f events/s per core, %.0f "
                    "vectors/s\n",
                    lanes == 1 ? "dataflow" : "lane", lanes,
                    static_cast<unsigned long long>(fleet.total_sim_events),
                    fleet.total_sim_wall_ms, fleet.sim_events_per_s(),
                    fleet.vectors_per_s());
        if (lanes > 1) {
            std::printf("lane engine: %.4f of the fleet's sim events carried "
                        "per-lane time slabs (divergent EE cones)\n",
                        fleet.divergent_share());
        }

        if (!fleet.delay_hist_no_ee.empty() && !fleet.delay_hist_ee.empty()) {
            // The paper's comparison as a distribution, not a mean: fleet-wide
            // per-vector completion-time percentiles, ns (recorded in ps).
            const obs::hist_snapshot& h0 = fleet.delay_hist_no_ee;
            const obs::hist_snapshot& h1 = fleet.delay_hist_ee;
            std::printf("delay p50/p90/p99/max (ns): plain %.1f/%.1f/%.1f/%.1f"
                        " -> ee %.1f/%.1f/%.1f/%.1f\n",
                        h0.value_at_percentile(50) / 1e3,
                        h0.value_at_percentile(90) / 1e3,
                        h0.value_at_percentile(99) / 1e3, h0.max / 1e3,
                        h1.value_at_percentile(50) / 1e3,
                        h1.value_at_percentile(90) / 1e3,
                        h1.value_at_percentile(99) / 1e3, h1.max / 1e3);
        }

        if (!json_path.empty()) {
            report::json root = runner::to_json(fleet);
            root.set("bench", report::json::str("plee_fleet"));
            atomic_write_text(json_path, root.dump());
            std::printf("wrote %s\n", json_path.c_str());
        }
        if (!metrics_path.empty()) {
            atomic_write_text(
                metrics_path,
                obs::to_prometheus(obs::registry::global().snapshot()));
            std::printf("wrote %s\n", metrics_path.c_str());
        }
        if (!trace_path.empty()) {
            atomic_write_text(trace_path, trace_jsonl(fleet));
            std::printf("wrote %s\n", trace_path.c_str());
        }
        if (interrupted()) {
            std::fprintf(stderr,
                         "plee_fleet: interrupted — partial results and all "
                         "sinks flushed\n");
            return 2;
        }
        return fleet.all_ok() ? 0 : 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "plee_fleet: %s\n", e.what());
        return 1;
    }
}
