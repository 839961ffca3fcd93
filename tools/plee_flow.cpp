// plee_flow — command-line driver for the whole Phased Logic / Early
// Evaluation pipeline.
//
//   plee_flow --bench b11                  run a built-in ITC99-style circuit
//   plee_flow --blif design.blif           run an imported BLIF netlist
//
// The flow maps the netlist to Phased Logic, applies Early Evaluation and
// measures it once, as a Table 3 row does: one measurement gives the
// average delay with EE and without it (the netlist without its trigger
// gates), checks every vector against the synchronous golden model, and
// counts the events of both time planes the run simulates.
//
// Options:
//   --vectors N        random vectors to simulate           (default 100)
//   --threshold X      EE cost threshold (Equation 1 units) (default 0)
//   --method M         trigger derivation: exact | cube     (default exact)
//   --no-ee            skip Early Evaluation (baseline only)
//   --threads N        EE trigger-search worker threads
//                      (default 0 = hardware_concurrency; bit-identical
//                      results at any count)
//   --seed S           stimulus seed                        (default fixed)
//   --lanes L          stimulus lanes per engine pass: 1 | 64
//                      (default 1 = the paper's sequential protocol on the
//                      dataflow engine; 64 = independent vectors on the lane
//                      engine; see sim/README.md)
//   --delays D         delay model: default | tie (all components 1.0, the
//                      lane-divergence stressor)
//   --dot FILE         write the PL netlist (post-EE) as Graphviz
//   --vcd FILE         write a token waveform of the first 10 vectors (a
//                      sequential-wave run under the measured delay model)
//   --blif-out FILE    re-export the synchronous netlist as BLIF
//   --report           per-trigger detail (support, coverage, cost)
//   --metrics-out FILE write the process metrics registry as Prometheus
//                      text exposition (see src/obs/README.md)
//   --trace-out FILE   write a JSONL telemetry stream: the run's stage-span
//                      breakdown plus a registry snapshot (docs/schemas.md)
//
// Numeric values must parse whole (no sign on counts, no trailing
// characters; --threshold finite and >= 0) and --vectors must be > 0; a bad
// value is a usage error naming the flag.
//
// Exit status: 0 = ok, 1 = verification failure / bad arguments / fatal
// error, 2 = interrupted (SIGINT/SIGTERM: the first signal cancels the
// run cooperatively and still flushes --metrics-out/--trace-out through
// the atomic-rename path; a second signal hard-exits).

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench_circuits/itc99.hpp"
#include "bool/support.hpp"
#include "ee/ee_transform.hpp"
#include "netlist/blif.hpp"
#include "obs/registry.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "plogic/pl_mapper.hpp"
#include "report/json.hpp"
#include "report/table.hpp"
#include "rt/atomic_write.hpp"
#include "rt/job_context.hpp"
#include "rt/parse.hpp"
#include "sim/measure.hpp"
#include "sim/vcd.hpp"

using namespace plee;

namespace {

struct cli_options {
    std::string bench;
    std::string blif_in;
    std::size_t vectors = 100;
    double threshold = 0.0;
    ee::trigger_method method = ee::trigger_method::exact;
    bool apply_ee = true;
    unsigned threads = 0;  // 0 = hardware_concurrency
    std::uint64_t seed = 0x9e3779b97f4a7c15ull;
    bool tie_delays = false;
    std::size_t lanes = 1;
    std::string dot_out;
    std::string vcd_out;
    std::string blif_out;
    bool per_trigger_report = false;
    std::string metrics_out;
    std::string trace_out;
};

void usage() {
    std::fprintf(stderr,
                 "usage: plee_flow (--bench bXX | --blif FILE) [--vectors N] "
                 "[--threshold X]\n                 [--method exact|cube] [--no-ee] "
                 "[--threads N] [--seed S]\n                 [--lanes 1|64] "
                 "[--delays default|tie] [--dot FILE] [--vcd FILE]\n"
                 "                 [--blif-out FILE] [--report]\n"
                 "                 [--metrics-out FILE] [--trace-out FILE]\n");
}

std::optional<cli_options> parse(int argc, char** argv) {
    cli_options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) return nullptr;
            return argv[++i];
        };
        if (arg == "--bench") {
            if (const char* v = next()) o.bench = v; else return std::nullopt;
        } else if (arg == "--blif") {
            if (const char* v = next()) o.blif_in = v; else return std::nullopt;
        } else if (arg == "--vectors") {
            const char* v = next();
            if (v == nullptr) return std::nullopt;
            o.vectors = parse_positive<std::size_t>(arg, v);
        } else if (arg == "--threshold") {
            if (const char* v = next()) o.threshold = parse_non_negative(arg, v);
            else return std::nullopt;
        } else if (arg == "--method") {
            const char* v = next();
            if (v == nullptr) return std::nullopt;
            if (std::strcmp(v, "exact") == 0) o.method = ee::trigger_method::exact;
            else if (std::strcmp(v, "cube") == 0) o.method = ee::trigger_method::cube_list;
            else return std::nullopt;
        } else if (arg == "--no-ee") {
            o.apply_ee = false;
        } else if (arg == "--threads") {
            if (const char* v = next()) o.threads = parse_unsigned<unsigned>(arg, v);
            else return std::nullopt;
        } else if (arg == "--seed") {
            if (const char* v = next()) o.seed = parse_unsigned<std::uint64_t>(arg, v);
            else return std::nullopt;
        } else if (arg == "--lanes") {
            const char* v = next();
            if (v == nullptr) return std::nullopt;
            o.lanes = parse_unsigned<std::size_t>(arg, v);
            if (o.lanes != 1 && o.lanes != sim::k_lanes) {
                throw std::invalid_argument("--lanes: must be 1 or 64");
            }
        } else if (arg == "--delays") {
            const char* v = next();
            if (v == nullptr) return std::nullopt;
            if (std::string(v) == "tie") o.tie_delays = true;
            else if (std::string(v) != "default") return std::nullopt;
        } else if (arg == "--dot") {
            if (const char* v = next()) o.dot_out = v; else return std::nullopt;
        } else if (arg == "--vcd") {
            if (const char* v = next()) o.vcd_out = v; else return std::nullopt;
        } else if (arg == "--blif-out") {
            if (const char* v = next()) o.blif_out = v; else return std::nullopt;
        } else if (arg == "--report") {
            o.per_trigger_report = true;
        } else if (arg == "--metrics-out") {
            if (const char* v = next()) o.metrics_out = v; else return std::nullopt;
        } else if (arg == "--trace-out") {
            if (const char* v = next()) o.trace_out = v; else return std::nullopt;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return std::nullopt;
        }
    }
    if (o.bench.empty() == o.blif_in.empty()) return std::nullopt;  // exactly one
    return o;
}

/// First SIGINT/SIGTERM cancels the run cooperatively (one atomic store —
/// async-signal-safe); a second hard-exits.
cancel_token g_interrupt;
std::atomic<int> g_signal_count{0};

extern "C" void on_signal(int) {
    if (g_signal_count.fetch_add(1, std::memory_order_relaxed) == 0) {
        g_interrupt.cancel();
    } else {
        ::_exit(130);
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::optional<cli_options> parsed;
    try {
        parsed = parse(argc, argv);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "plee_flow: %s\n", e.what());
    }
    if (!parsed) {
        usage();
        return 1;
    }
    const cli_options& o = *parsed;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);

    // One job context for the whole flow.  Its trace records a fleet job's
    // stages: map_to_pl, ee.pass (with an ee.search child; absent with
    // --no-ee) and measure (with sim.golden, sim.compile and sim.run
    // children).
    obs::trace trace;
    const job_context ctx{.label = o.bench.empty() ? o.blif_in : o.bench,
                          .cancel = &g_interrupt,
                          .trace = &trace};

    // Sink flushing is shared between the normal exit and the interrupt
    // path, so a cancelled run still lands complete, atomically-renamed
    // artifacts.
    const auto flush_sinks = [&]() {
        if (!o.metrics_out.empty()) {
            atomic_write_text(o.metrics_out, obs::to_prometheus(
                                               obs::registry::global().snapshot()));
            std::printf("wrote %s\n", o.metrics_out.c_str());
        }
        if (!o.trace_out.empty()) {
            report::json flow = report::json::object();
            flow.set("type", report::json::str("flow"));
            flow.set("id", report::json::str(ctx.label));
            flow.set("spans", obs::spans_to_json(trace.spans()));
            report::json metrics = report::json::object();
            metrics.set("type", report::json::str("metrics"));
            metrics.set("metrics",
                        obs::metrics_to_json(obs::registry::global().snapshot()));
            atomic_write_text(o.trace_out, flow.dump_compact() + "\n" +
                                             metrics.dump_compact() + "\n");
            std::printf("wrote %s\n", o.trace_out.c_str());
        }
    };

    try {
        // --- Front end -------------------------------------------------------
        nl::netlist netlist = [&] {
            if (!o.bench.empty()) return bench::build_benchmark(o.bench);
            std::ifstream in(o.blif_in);
            if (!in) throw std::runtime_error("cannot open " + o.blif_in);
            return nl::from_blif(in);
        }();
        std::printf("netlist: %zu LUTs, %zu DFFs, %zu inputs, %zu outputs\n",
                    netlist.num_luts(), netlist.dffs().size(),
                    netlist.inputs().size(), netlist.outputs().size());
        if (!o.blif_out.empty()) {
            const std::string model = o.bench.empty() ? "imported" : o.bench;
            atomic_write_text(o.blif_out, nl::to_blif(netlist, model));
            std::printf("wrote %s\n", o.blif_out.c_str());
        }

        // --- Phased Logic mapping --------------------------------------------
        pl::map_result mapped = [&] {
            const obs::scoped_span span(&trace, "map_to_pl");
            return pl::map_to_phased_logic(netlist);
        }();
        const pl::mg_report health = mapped.pl.verify();
        std::printf("phased logic: %zu PL gates, %zu acks (+%zu saved), "
                    "well-formed=%d live=%d safe=%d\n",
                    mapped.pl.num_pl_gates(), mapped.pl.num_ack_edges(),
                    mapped.stats.acks_saved_by_natural_cycles +
                        mapped.stats.acks_saved_by_sharing,
                    health.well_formed, health.live, health.safe);
        if (!health.ok()) return 1;

        // --- Early Evaluation ---------------------------------------------------
        if (o.apply_ee) {
            ee::ee_options opts;
            opts.search.cost_threshold = o.threshold;
            opts.search.method = o.method;
            opts.num_threads = o.threads;
            const ee::ee_stats stats =
                ee::apply_early_evaluation(mapped.pl, opts, ctx);
            std::printf("early evaluation: %zu triggers on %zu masters "
                        "(+%.0f%% area)\n",
                        stats.triggers_added, stats.masters_considered,
                        mapped.pl.num_pl_gates() == 0
                            ? 0.0
                            : 100.0 * static_cast<double>(stats.triggers_added) /
                                  static_cast<double>(mapped.pl.num_pl_gates()));
            if (o.per_trigger_report) {
                report::text_table t({"master", "support pins", "trigger",
                                      "coverage", "Mmax", "Tmax", "cost"});
                for (const ee::applied_trigger& at : stats.applied) {
                    std::string pins;
                    for (int p : bf::support_members(at.candidate.support)) {
                        if (!pins.empty()) pins += ",";
                        pins += std::to_string(p);
                    }
                    t.add_row({mapped.pl.name(at.master).empty()
                                   ? "g" + std::to_string(at.master)
                                   : std::string(mapped.pl.name(at.master)),
                               pins, at.candidate.function.to_string(),
                               report::fmt(at.candidate.coverage_percent, 0) + "%",
                               std::to_string(at.candidate.master_max_arrival),
                               std::to_string(at.candidate.trigger_max_arrival),
                               report::fmt(at.candidate.cost, 1)});
                }
                std::printf("%s", t.to_string().c_str());
            }
        }
        if (!o.dot_out.empty()) {
            atomic_write_text(o.dot_out, mapped.pl.to_dot("plee_flow"));
            std::printf("wrote %s\n", o.dot_out.c_str());
        }

        // --- Measurement ----------------------------------------------------------
        sim::measure_options mopts;
        mopts.num_vectors = o.vectors;
        mopts.seed = o.seed;
        mopts.lanes = o.lanes;
        if (o.tie_delays) {
            // Every delay component equal: all EE races tie, maximizing
            // mixed efire words (and thus divergent lane times).
            mopts.sim.delays = {1.0, 1.0, 1.0, 1.0, 1.0};
        }

        const sim::measure_arms arms = [&] {
            const obs::scoped_span span(&trace, "measure");
            return sim::measure_both_arms(mapped.pl, &netlist, mopts, ctx);
        }();
        const sim::measure_result& r = arms.ee;
        std::printf("simulated %zu vectors: avg delay %.2f ns (min %.2f, max "
                    "%.2f, stddev %.2f), without EE %.2f ns, outputs match "
                    "golden model\n",
                    o.vectors, r.avg_delay, r.min_delay, r.max_delay, r.stddev,
                    arms.plain.avg_delay);
        // The run simulates both arms' time planes: count every event, as a
        // Table 3 row and the fleet do.
        const std::uint64_t events = arms.plain.stats.events + r.stats.events;
        std::printf("simulator (%s engine, %zu lanes): %llu events in %.1f ms "
                    "= %.0f events/s, %.0f vectors/s\n",
                    o.lanes == 1 ? "dataflow" : "lane", o.lanes,
                    static_cast<unsigned long long>(events), r.sim_wall_ms,
                    r.sim_wall_ms > 0.0
                        ? 1000.0 * static_cast<double>(events) / r.sim_wall_ms
                        : 0.0,
                    r.vectors_per_s());
        if (o.lanes > 1) {
            std::printf("lane engine: %llu blocks, %llu divergent EE firings, "
                        "%llu of %llu events carried per-lane time slabs\n",
                        static_cast<unsigned long long>(r.stats.lane_blocks),
                        static_cast<unsigned long long>(r.stats.lane_splits),
                        static_cast<unsigned long long>(
                            r.stats.lane_slab_deposits),
                        static_cast<unsigned long long>(events));
        }
        if (r.stats.ee_hits + r.stats.ee_misses > 0) {
            std::printf("EE firings: %llu hits / %llu misses (%llu strictly "
                        "early outputs)\n",
                        static_cast<unsigned long long>(r.stats.ee_hits),
                        static_cast<unsigned long long>(r.stats.ee_misses),
                        static_cast<unsigned long long>(r.stats.ee_wins));
        }
        if (!r.delay_hist.empty()) {
            // Recorded as integer picoseconds; print as ns to match avg delay.
            const obs::hist_snapshot& h = r.delay_hist;
            std::printf("delay percentiles (ns): p50 %.2f  p90 %.2f  p99 %.2f  "
                        "max %.2f\n",
                        static_cast<double>(h.value_at_percentile(50.0)) / 1e3,
                        static_cast<double>(h.value_at_percentile(90.0)) / 1e3,
                        static_cast<double>(h.value_at_percentile(99.0)) / 1e3,
                        static_cast<double>(h.max) / 1e3);
        }

        if (!o.vcd_out.empty()) {
            // A short dedicated sequential-wave run under the measurement's
            // own options keeps the file readable; lane tokens carry no
            // single trace value, so the traced run is a sequential one.
            sim::pl_simulator tracer(mapped.pl, mopts.sim, ctx);
            std::vector<sim::trace_event> trace;
            tracer.run(sim::random_vectors(std::min<std::size_t>(o.vectors, 10),
                                           mapped.pl.sources().size(), o.seed),
                       trace);
            atomic_write_text(o.vcd_out, sim::to_vcd(mapped.pl, trace));
            std::printf("wrote %s (first %zu vectors)\n", o.vcd_out.c_str(),
                        std::min<std::size_t>(o.vectors, 10));
        }

        // --- Sinks (telemetry) -------------------------------------------------
        flush_sinks();
        return 0;
    } catch (const job_timeout& e) {
        // Interrupt or deadline: partial run, but every requested sink still
        // lands complete via the atomic-rename path.
        std::fprintf(stderr, "plee_flow: interrupted: %s\n", e.what());
        try {
            flush_sinks();
        } catch (const std::exception& flush_err) {
            std::fprintf(stderr, "plee_flow: sink flush failed: %s\n",
                         flush_err.what());
        }
        return 2;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
