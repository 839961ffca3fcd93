// fleetbench.cpp — the repository benchmark driver (see README.md beside it).
//
// One process runs one workload.  It builds the workload's netlists from the
// seed, then calls runner::run_fleet in a closed loop — one client, one
// worker thread, library defaults otherwise — for --seconds of wall time.
// Every pass is a fresh run_fleet call, so every pass pays the pipeline's
// full cost, and every pass's rows must equal the first pass's bit for bit.
//
// --trace-out switches to the traced run: each round is one untraced fleet
// pass followed by one traced pass in which this file calls each layer's
// public entry point itself, one span per call.  The traced rows must equal
// the fleet's rows bit for bit.  The spans are kept in memory and written to
// the --trace-out file (JSON lines) when the run ends.
//
// The last stdout line is one JSON object: correct / attempted / failed /
// metrics, plus diagnostics and a digest of the rows for run.py.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "bool/splitmix64.hpp"
#include "ee/ee_transform.hpp"
#include "netlist/sync_sim.hpp"
#include "plogic/pl_mapper.hpp"
#include "report/json.hpp"
#include "rt/wall_timer.hpp"
#include "runner/runner.hpp"
#include "sim/measure.hpp"
#include "sim/stimulus.hpp"
#include "workload/workload.hpp"

namespace {

using namespace plee;
using report::json;

constexpr int k_exit_failure = 1;
constexpr int k_exit_usage = 2;

// ----------------------------------------------------------------- workloads

/// One fleet.  README.md says which layer each workload stresses and why.
struct workload {
    std::string name;
    std::size_t lanes = 1;
    std::size_t vectors = 100;
    /// Generated netlists cycle through these presets; empty = ITC99 suite.
    std::vector<wl::scenario> presets;
    std::size_t netlists = 0;
    std::size_t gates = 0;
};

const std::vector<workload>& workloads() {
    static const std::vector<workload> all = {
        {"itc99-seq", 1, 100, {}, 0, 0},
        {"lut4-lanes", sim::k_lanes, 256,
         {wl::scenario::random_dag, wl::scenario::datapath_like,
          wl::scenario::control_fsm, wl::scenario::wide_adder},
         12, 400},
        {"wide-search", 1, 100,
         {wl::scenario::lut6_dag, wl::scenario::lut8_datapath}, 10, 150},
    };
    return all;
}

/// The workload's inputs: the netlists of one fleet, built from the seed.
/// Generator seeds are scrambled because the generator draws from
/// splitmix64(state++): consecutive seeds would give netlists the same
/// random stream shifted by one draw, sharing most of their LUT functions.
std::vector<runner::fleet_job> build_inputs(const workload& w,
                                            std::uint64_t seed) {
    std::vector<runner::fleet_job> jobs;
    if (w.presets.empty()) {
        for (const bench::benchmark_info& b : bench::itc99_suite()) {
            runner::fleet_job job;
            job.id = b.id;
            job.description = b.description;
            job.netlist = b.build();
            jobs.push_back(std::move(job));
        }
        return jobs;
    }
    for (std::size_t i = 0; i < w.netlists; ++i) {
        const wl::scenario kind = w.presets[i % w.presets.size()];
        runner::fleet_job job;
        job.id = std::string(wl::to_string(kind)) + "/" + std::to_string(i);
        job.description = job.id;
        job.netlist = wl::generate(
            wl::scenario_params(kind, w.gates, bf::splitmix64(seed * 64 + i)));
        jobs.push_back(std::move(job));
    }
    return jobs;
}

runner::fleet_options fleet_options_for(const workload& w, std::uint64_t seed) {
    runner::fleet_options options;
    options.num_threads = 1;
    options.experiment.measure.lanes = w.lanes;
    options.experiment.measure.num_vectors = w.vectors;
    options.experiment.measure.seed = bf::splitmix64(~seed);
    return options;
}

// ---------------------------------------------------------------- row checks

/// The parts of one experiment row that are exact functions of circuit and
/// stimulus — what the determinism contract promises to repeat.
struct row_facts {
    std::string id;
    bool ok = false;
    std::size_t pl_gates = 0;
    std::size_t ee_gates = 0;
    std::size_t triggers = 0;
    std::size_t masters = 0;
    std::size_t vectors = 0;  ///< both measurements
    double delay_plain = 0.0;
    double delay_ee = 0.0;
    std::uint64_t events = 0;  ///< both measurements
    std::uint64_t ee_hits = 0;
    std::uint64_t ee_misses = 0;
    std::uint64_t ee_wins = 0;
    obs::hist_snapshot hist_plain;  ///< per-vector delays, integer ps
    obs::hist_snapshot hist_ee;

    bool operator==(const row_facts&) const = default;
};

row_facts facts_of(const runner::job_result& r) {
    const report::experiment_row& row = r.row;
    row_facts f;
    f.id = r.id;
    f.ok = r.status == runner::job_status::ok;
    f.pl_gates = row.pl_gates;
    f.ee_gates = row.ee_gates;
    f.triggers = row.ee_detail.triggers_added;
    f.masters = row.ee_detail.masters_considered;
    f.vectors = row.vectors_measured;
    f.delay_plain = row.delay_no_ee;
    f.delay_ee = row.delay_ee;
    f.events = row.stats_no_ee.events + row.stats_ee.events;
    f.ee_hits = row.stats_ee.ee_hits;
    f.ee_misses = row.stats_ee.ee_misses;
    f.ee_wins = row.stats_ee.ee_wins;
    f.hist_plain = row.delay_hist_no_ee;
    f.hist_ee = row.delay_hist_ee;
    return f;
}

/// Invariants every succeeded row satisfies beyond the pipeline's own
/// golden-model check.
bool plausible(const row_facts& f, const workload& w) {
    return f.ok && f.pl_gates > 0 && f.ee_gates == f.triggers &&
           f.vectors == 2 * w.vectors && f.hist_ee.count == w.vectors &&
           std::isfinite(f.delay_plain) && f.delay_plain > 0.0 &&
           std::isfinite(f.delay_ee) && f.delay_ee > 0.0;
}

struct fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ull;
        }
    }
    void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
    void add(const std::string& s) {
        for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ull;
        add(std::uint64_t{s.size()});
    }
    void add(const obs::hist_snapshot& s) {
        add(s.count);
        add(s.sum);
        for (const auto& [bucket, n] : s.buckets) {
            add(std::uint64_t{bucket});
            add(n);
        }
    }
};

std::string digest(const std::vector<row_facts>& rows) {
    fnv1a d;
    for (const row_facts& f : rows) {
        d.add(f.id);
        d.add(std::uint64_t{f.ok});
        for (const std::uint64_t v :
             {std::uint64_t{f.pl_gates}, std::uint64_t{f.ee_gates},
              std::uint64_t{f.triggers}, std::uint64_t{f.masters},
              std::uint64_t{f.vectors}, f.events, f.ee_hits, f.ee_misses,
              f.ee_wins}) {
            d.add(v);
        }
        d.add(f.delay_plain);
        d.add(f.delay_ee);
        d.add(f.hist_plain);
        d.add(f.hist_ee);
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(d.h));
    return buf;
}

/// Throws naming the first job whose facts differ.
void require_equal(const std::vector<row_facts>& got,
                   const std::vector<row_facts>& want, const std::string& what) {
    for (std::size_t i = 0; i < std::max(got.size(), want.size()); ++i) {
        if (i >= got.size() || i >= want.size() || !(got[i] == want[i])) {
            const std::string id = i < want.size() ? want[i].id : got[i].id;
            throw std::runtime_error(what + ": rows differ from the first " +
                                     "pass's at job " + id);
        }
    }
}

// ---------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Mean of the fastest tenth of the samples (at least one): the passes the
/// host disturbed least.  The program is deterministic and single-threaded,
/// so pass-to-pass differences are host noise, which only ever adds time.
double least_disturbed(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t k = std::max<std::size_t>(1, v.size() / 10);
    double sum = 0.0;
    for (std::size_t i = 0; i < k; ++i) sum += v[i];
    return sum / static_cast<double>(k);
}

/// A fixed kernel timed after every pass: a dependent walk around one
/// random cycle through a 512 KiB table, after one untimed lap that loads
/// the table into cache.  It runs no library code, so its time moves only
/// with the host; being cache-bound like the pipeline, it tracks the host's
/// slow phases better than an arithmetic loop does.
double reference_kernel_ms() {
    constexpr std::uint32_t k_slots = 1u << 17;
    static const std::vector<std::uint32_t> next = [] {
        std::vector<std::uint32_t> cycle(k_slots);
        for (std::uint32_t i = 0; i < k_slots; ++i) cycle[i] = i;
        for (std::uint32_t i = k_slots - 1; i > 0; --i) {  // Sattolo
            std::swap(cycle[i], cycle[bf::splitmix64(i) % i]);
        }
        return cycle;
    }();
    static volatile std::uint32_t sink = 0;
    std::uint32_t slot = sink;
    for (std::uint32_t step = 0; step < k_slots; ++step) slot = next[slot];
    const wall_timer timer;
    for (std::uint32_t step = 0; step < 2 * k_slots; ++step) slot = next[slot];
    sink = slot;
    return timer.elapsed_ms();
}

/// Peak resident set of this process image, in MB (VmHWM).  Unlike
/// getrusage's ru_maxrss it restarts at exec, so it does not inherit the
/// peak of the process that launched this one.
double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB
        }
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

// -------------------------------------------------------------------- output

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

json series(const std::vector<double>& v) {
    json out = json::array();
    for (const double x : v) out.push(json::number(x));
    return out;
}

json quartiles(const std::vector<double>& v) {
    json out = json::object();
    out.set("n", json::number(v.size()));
    for (const auto& [name, q] : {std::pair{"min", 0.0}, {"q1", 0.25}, {"median", 0.5},
                                  {"q3", 0.75}, {"max", 1.0}}) {
        out.set(name, json::number(quantile(v, q)));
    }
    return out;
}

// ------------------------------------------------------------------- tracing

/// One timed call: name, start, end, parent and the job it served.
struct span {
    std::string name;  ///< "pass", "job" or "<layer>.<call>"
    std::string job;   ///< job id; the pass number for "pass" spans
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;  ///< index of the enclosing span, -1 for a pass
};

class span_log {
public:
    int open(std::string name, std::string job, int parent) {
        spans_.push_back({std::move(name), std::move(job),
                          epoch_.elapsed_ms(), 0.0, parent});
        return static_cast<int>(spans_.size()) - 1;
    }
    void close(int index) { spans_[index].end_ms = epoch_.elapsed_ms(); }

    /// Times fn() as one span.
    template <class Fn>
    auto call(const char* name, const std::string& job, int parent, Fn&& fn) {
        const int index = open(name, job, parent);
        auto result = fn();
        close(index);
        return result;
    }

    const std::vector<span>& spans() const { return spans_; }

    /// Per-layer self time of the spans from `first` on, in ms.  A layer is
    /// the span name up to its first '.'; self time is the duration minus the
    /// children's durations.
    std::map<std::string, double> layer_self_ms(std::size_t first) const {
        const std::vector<double> self = self_ms();
        std::map<std::string, double> layers;
        for (std::size_t i = first; i < spans_.size(); ++i) {
            const std::size_t dot = spans_[i].name.find('.');
            if (dot != std::string::npos) {
                layers[spans_[i].name.substr(0, dot)] += self[i];
            }
        }
        return layers;
    }

    void write_jsonl(const std::string& path) const {
        const std::vector<double> self = self_ms();
        std::ofstream out(path);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const span& s = spans_[i];
            json line = json::object();
            line.set("id", json::number(i));
            line.set("name", json::str(s.name));
            line.set("job", json::str(s.job));
            line.set("parent", json::number(s.parent));
            line.set("start_ms", json::number(s.start_ms));
            line.set("end_ms", json::number(s.end_ms));
            line.set("self_ms", json::number(self[i]));
            out << line.dump_compact() << "\n";
        }
        if (!out) throw std::runtime_error("cannot write trace to " + path);
    }

private:
    std::vector<double> self_ms() const {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            self[i] += spans_[i].end_ms - spans_[i].start_ms;
            if (spans_[i].parent >= 0) {
                self[spans_[i].parent] -= spans_[i].end_ms - spans_[i].start_ms;
            }
        }
        return self;
    }

    wall_timer epoch_;
    std::vector<span> spans_;
};

/// Drives the synchronous golden model over the stimulus a measurement
/// used, the way measure_average_delay's check does, and folds the outputs
/// into a checksum.
std::uint64_t run_golden(const nl::netlist& golden,
                         const std::vector<sim::stimulus_block>& blocks,
                         const sim::measure_options& measure) {
    fnv1a sum;
    if (measure.lanes == 1) {
        nl::sync_simulator gold(golden);
        std::vector<bool> inputs;
        for (std::size_t w = 0; w < measure.num_vectors; ++w) {
            blocks[w / sim::k_lanes].extract(w % sim::k_lanes, inputs);
            gold.set_inputs(inputs);
            gold.eval();
            for (const bool bit : gold.output_values()) sum.add(std::uint64_t{bit});
            gold.latch();
        }
        return sum.h;
    }
    nl::sync_lane_simulator gold(golden);
    std::vector<std::uint64_t> outputs(golden.outputs().size());
    for (const sim::stimulus_block& block : blocks) {
        gold.reset();
        gold.set_inputs(block.words.data(), block.width);
        gold.eval();
        gold.output_values(outputs.data());
        for (const std::uint64_t word : outputs) sum.add(word & block.lane_mask());
    }
    return sum.h;
}

/// One job through the pipeline's stages, calling each layer directly:
/// map, measure plain, map again, EE search, measure with EE — the order
/// report::run_ee_experiment runs them in, with the golden model timed
/// apart from the simulator.  Runs without the fleet's shared memo.
row_facts traced_job(const runner::fleet_job& job,
                     const runner::fleet_options& fleet, span_log& log,
                     int parent) {
    const report::experiment_options& experiment = fleet.experiment;
    const sim::measure_options& measure = experiment.measure;
    ee::ee_options ee_options = experiment.ee;
    ee_options.num_threads = 1;
    const int j = log.open("job", job.id, parent);

    const pl::map_result mapped = log.call("plogic.map", job.id, j, [&] {
        return pl::map_to_phased_logic(job.netlist, experiment.map);
    });
    const std::vector<sim::stimulus_block> stimulus = sim::make_stimulus(
        measure.num_vectors, mapped.pl.sources().size(), measure.seed);
    const sim::measure_result plain = log.call("sim.measure", job.id, j, [&] {
        return sim::measure_average_delay(mapped.pl, nullptr, measure);
    });
    const std::uint64_t golden_plain = log.call("netlist.golden", job.id, j, [&] {
        return run_golden(job.netlist, stimulus, measure);
    });

    pl::map_result mapped_ee = log.call("plogic.map", job.id, j, [&] {
        return pl::map_to_phased_logic(job.netlist, experiment.map);
    });
    const ee::ee_stats ee_stats = log.call("ee.search", job.id, j, [&] {
        return ee::apply_early_evaluation(mapped_ee.pl, ee_options);
    });
    const sim::measure_result with_ee = log.call("sim.measure", job.id, j, [&] {
        return sim::measure_average_delay(mapped_ee.pl, nullptr, measure);
    });
    const std::uint64_t golden_ee = log.call("netlist.golden", job.id, j, [&] {
        return run_golden(job.netlist, stimulus, measure);
    });
    log.close(j);
    if (golden_plain != golden_ee) {
        throw std::runtime_error("traced run: golden model is not deterministic on " +
                                 job.id);
    }

    row_facts f;
    f.id = job.id;
    f.ok = true;
    f.pl_gates = mapped.pl.num_pl_gates();
    f.ee_gates = mapped_ee.pl.num_trigger_gates();
    f.triggers = ee_stats.triggers_added;
    f.masters = ee_stats.masters_considered;
    f.vectors = plain.delays.size() + with_ee.delays.size();
    f.delay_plain = plain.avg_delay;
    f.delay_ee = with_ee.avg_delay;
    f.events = plain.stats.events + with_ee.stats.events;
    f.ee_hits = with_ee.stats.ee_hits;
    f.ee_misses = with_ee.stats.ee_misses;
    f.ee_wins = with_ee.stats.ee_wins;
    f.hist_plain = plain.delay_hist;
    f.hist_ee = with_ee.delay_hist;
    return f;
}

// ---------------------------------------------------------------------- main

struct args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string trace_out;  ///< empty = untraced run
};

args parse_args(int argc, char** argv) {
    args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::stoull(value);
            have_seed = true;
        } else if (flag == "--seconds") {
            a.seconds = std::stod(value);
        } else if (flag == "--trace-out") {
            a.trace_out = value;
        } else {
            throw std::invalid_argument("unknown flag " + flag);
        }
    }
    if (a.workload.empty() || !have_seed || !(a.seconds > 0.0)) {
        throw std::invalid_argument(
            "usage: fleetbench --workload NAME --seed N --seconds S "
            "[--trace-out PATH]");
    }
    return a;
}

struct totals {
    std::size_t ok = 0;
    std::size_t pl_gates = 0;
    std::size_t ee_gates = 0;
    std::size_t triggers = 0;
    std::size_t masters = 0;
    std::size_t vectors = 0;
    std::uint64_t events = 0;
    std::uint64_t ee_hits = 0;
    std::uint64_t ee_misses = 0;
    std::uint64_t ee_wins = 0;
    double delay_plain_sum = 0.0;  ///< sum over vectors of the mean delay
    double delay_ee_sum = 0.0;
    obs::hist_snapshot hist_ee;
};

totals sum_rows(const std::vector<row_facts>& rows) {
    totals t;
    for (const row_facts& f : rows) {
        if (!f.ok) continue;
        const double per_measure = static_cast<double>(f.vectors) / 2.0;
        ++t.ok;
        t.pl_gates += f.pl_gates;
        t.ee_gates += f.ee_gates;
        t.triggers += f.triggers;
        t.masters += f.masters;
        t.vectors += f.vectors;
        t.events += f.events;
        t.ee_hits += f.ee_hits;
        t.ee_misses += f.ee_misses;
        t.ee_wins += f.ee_wins;
        t.delay_plain_sum += f.delay_plain * per_measure;
        t.delay_ee_sum += f.delay_ee * per_measure;
        t.hist_ee.merge(f.hist_ee);
    }
    return t;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

int run(const args& a) {
    const auto found = std::find_if(workloads().begin(), workloads().end(),
                                    [&](const workload& w) { return w.name == a.workload; });
    if (found == workloads().end()) {
        std::cerr << "fleetbench: unknown workload '" << a.workload << "'\n";
        return k_exit_usage;
    }
    const workload& w = *found;
    const bool traced = !a.trace_out.empty();

    std::vector<double> setup_ms;
    wall_timer timer;
    const std::vector<runner::fleet_job> jobs = build_inputs(w, a.seed);
    setup_ms.push_back(timer.elapsed_ms());
    const runner::fleet_options options = fleet_options_for(w, a.seed);

    std::vector<double> pass_ms;
    std::vector<std::vector<double>> job_ms(jobs.size());
    std::vector<double> outside_jobs_ms;  ///< pass time not spent in a job
    std::vector<double> reference_ms;
    std::vector<row_facts> reference;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    bool plausible_rows = true;
    span_log log;
    std::map<std::string, std::vector<double>> layer_ms;

    const wall_timer window;
    for (std::size_t pass = 0; pass == 0 || window.elapsed_ms() < a.seconds * 1e3;
         ++pass) {
        timer.restart();
        const runner::fleet_result fleet = runner::run_fleet(jobs, options);
        pass_ms.push_back(timer.elapsed_ms());
        std::vector<row_facts> rows;
        double in_jobs_ms = 0.0;
        for (std::size_t i = 0; i < fleet.results.size(); ++i) {
            rows.push_back(facts_of(fleet.results[i]));
            job_ms[i].push_back(fleet.results[i].wall_ms);
            in_jobs_ms += fleet.results[i].wall_ms;
        }
        outside_jobs_ms.push_back(pass_ms.back() - in_jobs_ms);
        attempted += rows.size();
        for (const row_facts& f : rows) {
            if (!f.ok) ++failed;
            plausible_rows = plausible_rows && plausible(f, w);
        }
        if (pass == 0) {
            reference = std::move(rows);
        } else {
            require_equal(rows, reference, "pass " + std::to_string(pass));
        }
        reference_ms.push_back(reference_kernel_ms());

        if (traced) {
            const std::size_t first = log.spans().size();
            const int p = log.open("pass", std::to_string(pass), -1);
            std::vector<row_facts> traced_rows;
            for (const runner::fleet_job& job : jobs) {
                traced_rows.push_back(traced_job(job, options, log, p));
            }
            log.close(p);
            require_equal(traced_rows, reference,
                          "traced pass " + std::to_string(pass));
            for (const auto& [layer, ms] : log.layer_self_ms(first)) {
                layer_ms[layer].push_back(ms);
            }
        } else {
            // Set up again after every pass, so set-up time is estimated
            // like pass time: from the builds the host disturbed least, not
            // from one build that a page-fault burst or slow phase decides.
            // Rebuilding for a twentieth of the pass time gives sub-ms
            // set-ups enough samples for their fastest tenth to settle.
            double rebuilt_ms = 0.0;
            do {
                timer.restart();
                const std::vector<runner::fleet_job> rebuilt = build_inputs(w, a.seed);
                setup_ms.push_back(timer.elapsed_ms());
                rebuilt_ms += setup_ms.back();
            } while (rebuilt_ms < pass_ms.back() / 20.0);
        }
    }

    // A pass's time with each part taken at its least disturbed: every job's
    // fastest tenth plus the fastest tenth of the time outside jobs.  With
    // one worker the jobs run back to back, so every pass is exactly that
    // sum; a multi-second pass thereby borrows undisturbed moments job by
    // job instead of needing a whole pass to miss every slow phase.
    double pass_estimate_ms = least_disturbed(outside_jobs_ms);
    for (const std::vector<double>& samples : job_ms) {
        pass_estimate_ms += least_disturbed(samples);
    }
    const totals t = sum_rows(reference);
    const double pass_s = pass_estimate_ms / 1e3;
    const bool correct = failed == 0 && plausible_rows;
    std::vector<metric> metrics;
    if (!traced) {
        const double vectors_per_measure = static_cast<double>(t.vectors) / 2.0;
        metrics = {
            {"netlists_per_s", ratio(static_cast<double>(t.ok), pass_s), "1/s"},
            {"setup_s", least_disturbed(setup_ms) / 1e3, "s"},
            {"peak_rss_mb", peak_rss_mb(), "MB"},
            {"delay_plain_ns", ratio(t.delay_plain_sum, vectors_per_measure), "sim_ns"},
            {"delay_ee_ns", ratio(t.delay_ee_sum, vectors_per_measure), "sim_ns"},
            {"delay_ee_p99_ns",
             static_cast<double>(t.hist_ee.value_at_percentile(99.0)) / 1e3, "sim_ns"},
            {"ee_area_pct",
             100.0 * ratio(static_cast<double>(t.ee_gates),
                           static_cast<double>(t.pl_gates)),
             "%"},
        };
    } else {
        log.write_jsonl(a.trace_out);
        std::map<std::string, double> layer_s;
        double traced_s = 0.0;
        for (const char* layer : {"plogic", "ee", "sim", "netlist"}) {
            layer_s[layer] = least_disturbed(layer_ms[layer]) / 1e3;
            traced_s += layer_s[layer];
        }
        const double mapped_gates = 2.0 * static_cast<double>(t.pl_gates);
        metrics = {
            {"plogic.map_s", layer_s["plogic"], "s"},
            {"plogic.share", ratio(layer_s["plogic"], traced_s), "fraction"},
            {"plogic.pl_gates", static_cast<double>(t.pl_gates), "count"},
            {"plogic.us_per_gate", ratio(layer_s["plogic"] * 1e6, mapped_gates), "us"},
            {"ee.search_s", layer_s["ee"], "s"},
            {"ee.share", ratio(layer_s["ee"], traced_s), "fraction"},
            {"ee.masters", static_cast<double>(t.masters), "count"},
            {"ee.triggers", static_cast<double>(t.triggers), "count"},
            {"ee.us_per_master",
             ratio(layer_s["ee"] * 1e6, static_cast<double>(t.masters)), "us"},
            {"sim.run_s", layer_s["sim"], "s"},
            {"sim.share", ratio(layer_s["sim"], traced_s), "fraction"},
            {"sim.events", static_cast<double>(t.events), "count"},
            {"sim.ns_per_event",
             ratio(layer_s["sim"] * 1e9, static_cast<double>(t.events)), "ns"},
            {"sim.ee_fire_rate",
             ratio(static_cast<double>(t.ee_hits),
                   static_cast<double>(t.ee_hits + t.ee_misses)),
             "fraction"},
            {"sim.ee_win_rate",
             ratio(static_cast<double>(t.ee_wins), static_cast<double>(t.ee_hits)),
             "fraction"},
            {"netlist.golden_s", layer_s["netlist"], "s"},
            {"netlist.share", ratio(layer_s["netlist"], traced_s), "fraction"},
            {"netlist.us_per_vector",
             ratio(layer_s["netlist"] * 1e6, static_cast<double>(t.vectors)), "us"},
            {"runner.residual_s", pass_s - traced_s, "s"},
        };
    }

    json metric_values = json::object();
    for (const metric& m : metrics) {
        json value = json::object();
        value.set("value", json::number(m.value));
        value.set("unit", json::str(m.unit));
        metric_values.set(m.name, std::move(value));
    }
    std::vector<double> pass_over_kernel;
    for (std::size_t i = 0; i < pass_ms.size(); ++i) {
        pass_over_kernel.push_back(pass_ms[i] / reference_ms[i]);
    }
    json diagnostics = json::object();
    diagnostics.set("passes", json::number(pass_ms.size()));
    diagnostics.set("pass_ms", quartiles(pass_ms));
    diagnostics.set("least_disturbed_pass_ms", json::number(pass_estimate_ms));
    diagnostics.set("fastest_tenth_pass_ms", json::number(least_disturbed(pass_ms)));
    diagnostics.set("reference_kernel_ms", quartiles(reference_ms));
    diagnostics.set("pass_over_kernel", json::number(median(pass_over_kernel)));
    diagnostics.set("setup_ms", quartiles(setup_ms));
    diagnostics.set("first_setup_ms", json::number(setup_ms.front()));
    diagnostics.set("pass_ms_series", series(pass_ms));
    diagnostics.set("setup_ms_series", series(setup_ms));
    diagnostics.set("reference_kernel_ms_series", series(reference_ms));

    json result = json::object();
    result.set("correct", json::boolean(correct));
    result.set("attempted", json::number(attempted));
    result.set("failed", json::number(failed));
    result.set("metrics", std::move(metric_values));
    result.set("diagnostics", std::move(diagnostics));
    result.set("row_digest", json::str(digest(reference)));
    std::cout << result.dump_compact() << std::endl;
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    try {
        return run(parse_args(argc, argv));
    } catch (const std::invalid_argument& e) {
        std::cerr << "fleetbench: " << e.what() << "\n";
        return k_exit_usage;
    } catch (const std::exception& e) {
        std::cerr << "fleetbench: " << e.what() << "\n";
        return k_exit_failure;
    }
}
