#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "bool/splitmix64.hpp"
#include "obs/registry.hpp"
#include "obs/sink.hpp"
#include "report/json.hpp"
#include "rt/errors.hpp"
#include "rt/wall_timer.hpp"
#include "sim/errors.hpp"

namespace plee::runner {

namespace {

std::uint64_t fnv1a(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/// Runs one job to its terminal status: at most 1 + max_retries pipeline
/// attempts, each under a fresh deadline-armed cancel token.  Fills the
/// slot's row/status/error/attempts; stores the final failure for
/// fail_fast.  Never throws.
void run_job(const fleet_job& job, const report::experiment_options& experiment,
             const fleet_options& options, job_result& out,
             std::exception_ptr& error) {
    const unsigned max_attempts = options.max_retries + 1;
    const wall_timer timer;
    out.id = job.id;
    // Telemetry state for the whole job: the trace restarts per attempt (the
    // report carries the final attempt's breakdown), the recorder persists
    // across attempts so a post-mortem shows the retry history too.
    obs::trace trace;
    obs::flight_recorder recorder;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        out.attempts = attempt;
        cancel_token token;
        if (options.job_deadline_ms > 0.0) {
            token.set_deadline_after_ms(options.job_deadline_ms);
        }
        // Chain under the fleet-wide interrupt token: a SIGINT cancels this
        // attempt at its next cooperative poll, same path as a deadline.
        token.set_parent(options.fleet_cancel);
        report::experiment_options opts = experiment;
        opts.cancel = &token;
        opts.fault_context = job.id + "#" + std::to_string(attempt);
        if (job.max_events != 0) opts.measure.sim.max_events = job.max_events;
        if (job.lanes != 0) opts.measure.lanes = job.lanes;
        opts.telemetry = options.telemetry;
        if (options.telemetry) {
            trace.clear();
            opts.trace = &trace;
            opts.recorder = &recorder;
            recorder.record("job.attempt", attempt, max_attempts);
        }
        try {
            out.row =
                report::run_ee_experiment(job.description, job.netlist, opts);
            out.status = attempt > 1 ? job_status::retried_ok : job_status::ok;
            out.error.clear();
            error = nullptr;
            break;
        } catch (const job_timeout& e) {
            // Permanent by policy: the pipeline is deterministic and a retry
            // would multiply the wall time the deadline exists to bound.
            out.status = job_status::timed_out;
            out.error = e.what();
            error = std::current_exception();
            if (options.telemetry) {
                recorder.record_note("job.timeout", out.error, attempt);
            }
            break;
        } catch (const sim::budget_exhausted& e) {
            out.status = job_status::budget_exhausted;
            out.error = e.what();
            error = std::current_exception();
            if (options.telemetry) {
                recorder.record_note("job.budget_exhausted", out.error, attempt);
            }
            break;
        } catch (const std::exception& e) {
            out.status = job_status::failed;
            out.error = e.what();
            error = std::current_exception();
            if (options.telemetry) {
                recorder.record_note("job.error", out.error, attempt);
            }
            if (classify_exception(error) == failure_class::transient &&
                attempt < max_attempts) {
                const double backoff_ms = retry_backoff_ms(
                    job.id, attempt, options.retry_backoff_base_ms);
                if (options.telemetry) {
                    recorder.record("job.retry", attempt + 1,
                                    static_cast<std::uint64_t>(backoff_ms));
                }
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(backoff_ms));
                continue;
            }
            break;
        }
    }
    out.wall_ms = timer.elapsed_ms();
    // scoped_span closes during unwind, so the trace is well-formed even
    // when the final attempt threw — a failed job still reports how far it
    // got and where the time went.
    out.spans = trace.spans();
    if (!job_succeeded(out.status)) out.flight = recorder.dump();
}

/// Pulls job indices from the shared counter and runs each to its terminal
/// status.  Results are slot-addressed by job index, so any interleaving
/// produces the same fleet_result.
void fleet_worker(const std::vector<fleet_job>& jobs,
                  const report::experiment_options& experiment,
                  const fleet_options& options, std::atomic<std::size_t>& next,
                  std::vector<job_result>& results,
                  std::vector<std::exception_ptr>& errors) {
    for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size()) return;
        if (options.fleet_cancel != nullptr && options.fleet_cancel->expired()) {
            // Interrupted fleet: don't even start the remaining jobs; give
            // them the same terminal status an in-flight cancel produces.
            results[i].id = jobs[i].id;
            results[i].status = job_status::timed_out;
            results[i].error = "fleet interrupted before job started";
            results[i].attempts = 0;
            continue;
        }
        run_job(jobs[i], experiment, options, results[i], errors[i]);
    }
}

}  // namespace

const char* to_string(job_status status) {
    switch (status) {
        case job_status::ok: return "ok";
        case job_status::retried_ok: return "retried_ok";
        case job_status::failed: return "failed";
        case job_status::timed_out: return "timed_out";
        case job_status::budget_exhausted: return "budget_exhausted";
    }
    return "?";
}

double retry_backoff_ms(const std::string& job_id, unsigned attempt,
                        double base_ms) {
    if (base_ms <= 0.0) return 0.0;
    const unsigned shift = std::min(attempt > 0 ? attempt - 1 : 0u, 20u);
    const double expo = base_ms * static_cast<double>(std::uint64_t{1} << shift);
    const std::uint64_t mixed = bf::splitmix64(fnv1a(job_id) ^ attempt);
    const double jitter =
        base_ms * (static_cast<double>(mixed >> 11) *
                   (1.0 / 9007199254740992.0));  // uniform in [0, base)
    return expo + jitter;
}

fleet_result run_fleet(const std::vector<fleet_job>& jobs,
                       const fleet_options& options) {
    fleet_result fleet;
    unsigned threads = options.num_threads != 0 ? options.num_threads
                                                : std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
    threads = static_cast<unsigned>(
        std::min<std::size_t>(threads, std::max<std::size_t>(jobs.size(), 1)));
    fleet.threads = threads;
    fleet.results.resize(jobs.size());
    if (jobs.empty()) return fleet;

    report::experiment_options experiment = options.experiment;
    experiment.ee.num_threads = std::max(options.ee_threads_per_job, 1u);

    std::vector<std::exception_ptr> errors(jobs.size());
    std::atomic<std::size_t> next{0};
    const wall_timer timer;
    if (threads <= 1) {
        fleet_worker(jobs, experiment, options, next, fleet.results, errors);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads - 1);
        for (unsigned t = 1; t < threads; ++t) {
            pool.emplace_back([&] {
                fleet_worker(jobs, experiment, options, next, fleet.results,
                             errors);
            });
        }
        fleet_worker(jobs, experiment, options, next, fleet.results, errors);
        for (std::thread& t : pool) t.join();
    }
    fleet.wall_ms = timer.elapsed_ms();

    if (options.fail_fast) {
        for (const std::exception_ptr& e : errors) {
            if (e) std::rethrow_exception(e);
        }
    }

    for (const job_result& r : fleet.results) {
        if (r.attempts > 1) ++fleet.jobs_retried;
        switch (r.status) {
            case job_status::ok:
            case job_status::retried_ok: ++fleet.jobs_ok; break;
            case job_status::failed: ++fleet.jobs_failed; break;
            case job_status::timed_out: ++fleet.jobs_timed_out; break;
            case job_status::budget_exhausted:
                ++fleet.jobs_budget_exhausted;
                break;
        }
        // Aggregates take succeeded rows only: a failed job's row is
        // default-initialized (possibly half a pipeline) and must not skew
        // fleet gate/event/delay figures.
        if (options.telemetry) {
            fleet.job_wall_hist_us.record(
                r.wall_ms <= 0.0 ? 0
                                 : static_cast<std::uint64_t>(
                                       std::llround(r.wall_ms * 1e3)));
        }
        if (!job_succeeded(r.status)) continue;
        fleet.delay_hist_no_ee.merge(r.row.delay_hist_no_ee);
        fleet.delay_hist_ee.merge(r.row.delay_hist_ee);
        fleet.total_pl_gates += r.row.pl_gates;
        fleet.total_ee_gates += r.row.ee_gates;
        fleet.total_triggers += r.row.ee_detail.triggers_added;
        fleet.total_sweeps += r.row.ee_detail.masters_considered;
        fleet.total_sim_events +=
            r.row.stats_no_ee.events + r.row.stats_ee.events;
        fleet.total_vectors += r.row.vectors_measured;
        fleet.total_lane_slab_deposits += r.row.stats_no_ee.lane_slab_deposits +
                                          r.row.stats_ee.lane_slab_deposits;
        fleet.total_sim_wall_ms += r.row.sim_wall_ms;
    }
    if (options.telemetry) {
        // One registry flush per fleet — the census the sinks export.
        obs::registry& reg = obs::registry::global();
        reg.get_counter("fleet.jobs_ok").add(fleet.jobs_ok);
        reg.get_counter("fleet.jobs_failed").add(fleet.jobs_failed);
        reg.get_counter("fleet.jobs_timed_out").add(fleet.jobs_timed_out);
        reg.get_counter("fleet.jobs_budget_exhausted")
            .add(fleet.jobs_budget_exhausted);
        reg.get_counter("fleet.jobs_retried").add(fleet.jobs_retried);
        reg.get_gauge("fleet.threads").set(static_cast<std::int64_t>(threads));
        reg.get_histogram("fleet.job_wall_us").merge(fleet.job_wall_hist_us);
    }
    return fleet;
}

report::json to_json(const fleet_result& fleet, bool include_rows) {
    report::json j = report::json::object();
    j.set("schema_version", report::json::number(k_fleet_schema_version));
    j.set("threads", report::json::number(static_cast<std::int64_t>(fleet.threads)));
    j.set("netlists", report::json::number(fleet.results.size()));
    j.set("jobs_ok", report::json::number(fleet.jobs_ok));
    j.set("jobs_failed", report::json::number(fleet.jobs_failed));
    j.set("jobs_timed_out", report::json::number(fleet.jobs_timed_out));
    j.set("jobs_budget_exhausted",
          report::json::number(fleet.jobs_budget_exhausted));
    j.set("jobs_retried", report::json::number(fleet.jobs_retried));
    j.set("wall_ms", report::json::number(fleet.wall_ms));
    j.set("netlists_per_s", report::json::number(fleet.netlists_per_s()));
    j.set("sweeps_per_s", report::json::number(fleet.sweeps_per_s()));
    j.set("total_pl_gates", report::json::number(fleet.total_pl_gates));
    j.set("total_ee_gates", report::json::number(fleet.total_ee_gates));
    j.set("total_triggers", report::json::number(fleet.total_triggers));
    j.set("total_sweeps", report::json::number(fleet.total_sweeps));
    j.set("total_sim_events", report::json::number(
                                  static_cast<std::int64_t>(fleet.total_sim_events)));
    j.set("total_sim_wall_ms", report::json::number(fleet.total_sim_wall_ms));
    j.set("sim_events_per_s", report::json::number(fleet.sim_events_per_s()));
    j.set("total_vectors", report::json::number(fleet.total_vectors));
    j.set("vectors_per_s", report::json::number(fleet.vectors_per_s()));
    j.set("divergent_share", report::json::number(fleet.divergent_share()));
    if (!fleet.delay_hist_no_ee.empty()) {
        j.set("delay_hist_no_ee_ns",
              obs::hist_to_json(fleet.delay_hist_no_ee, 1e3));
    }
    if (!fleet.delay_hist_ee.empty()) {
        j.set("delay_hist_ee_ns", obs::hist_to_json(fleet.delay_hist_ee, 1e3));
    }
    if (!fleet.job_wall_hist_us.empty()) {
        j.set("job_wall_ms_hist", obs::hist_to_json(fleet.job_wall_hist_us, 1e3));
    }
    if (include_rows) {
        report::json rows = report::json::array();
        for (const job_result& r : fleet.results) {
            report::json row = report::to_json(r.row);
            row.set("id", report::json::str(r.id));
            row.set("status", report::json::str(to_string(r.status)));
            row.set("attempts",
                    report::json::number(static_cast<std::int64_t>(r.attempts)));
            if (!r.error.empty()) row.set("error", report::json::str(r.error));
            row.set("wall_ms", report::json::number(r.wall_ms));
            if (!r.spans.empty()) {
                row.set("spans", obs::spans_to_json(r.spans));
            }
            if (!r.flight.empty()) {
                row.set("flight_recorder", obs::flight_to_json(r.flight));
            }
            rows.push(std::move(row));
        }
        j.set("rows", std::move(rows));
    }
    return j;
}

}  // namespace plee::runner
