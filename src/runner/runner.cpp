#include "runner/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>

#include "obs/registry.hpp"
#include "obs/sink.hpp"
#include "report/json.hpp"
#include "rt/errors.hpp"
#include "rt/wall_timer.hpp"
#include "rt/workers.hpp"
#include "sim/errors.hpp"

namespace plee::runner {

namespace {

/// Runs one job once, under a fresh job context with a deadline-armed
/// cancel token, and fills its slot's row/status/error.  Never throws.
void run_job(const fleet_job& job, const report::experiment_options& experiment,
             const fleet_options& options, job_result& out) {
    const wall_timer timer;
    out.id = job.id;
    obs::trace trace;
    obs::flight_recorder recorder;
    cancel_token token;
    if (options.job_deadline_ms > 0.0) {
        token.set_deadline_after_ms(options.job_deadline_ms);
    }
    // Chain under the fleet-wide interrupt token: a SIGINT cancels this job
    // at its next cooperative poll, same path as a deadline.
    token.set_parent(options.fleet_cancel);
    const job_context ctx{.label = job.id,
                          .cancel = &token,
                          .trace = options.telemetry ? &trace : nullptr,
                          .recorder = options.telemetry ? &recorder : nullptr,
                          .telemetry = options.telemetry};
    const auto fail = [&](job_status status, const char* tag, const char* what) {
        out.status = status;
        out.error = what;
        if (options.telemetry) recorder.record_note(tag, out.error);
    };
    try {
        out.row = report::run_ee_experiment(job.description, job.netlist,
                                            experiment, ctx);
        out.status = job_status::ok;
    } catch (const job_timeout& e) {
        fail(job_status::timed_out, "job.timeout", e.what());
    } catch (const sim::budget_exhausted& e) {
        fail(job_status::budget_exhausted, "job.budget_exhausted", e.what());
    } catch (const std::exception& e) {
        fail(job_status::failed, "job.error", e.what());
    }
    out.wall_ms = timer.elapsed_ms();
    // scoped_span closes during unwind, so the trace is well-formed even
    // when the job threw — a failed job still reports how far it got and
    // where the time went.
    out.spans = trace.spans();
    if (out.status != job_status::ok) out.flight = recorder.dump();
}

/// Pulls job indices from the shared counter and runs each to its terminal
/// status.  Results are slot-addressed by job index, so any interleaving
/// produces the same fleet_result.
void fleet_worker(const std::vector<fleet_job>& jobs,
                  const report::experiment_options& experiment,
                  const fleet_options& options, std::atomic<std::size_t>& next,
                  std::vector<job_result>& results) {
    for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= jobs.size()) return;
        if (options.fleet_cancel != nullptr && options.fleet_cancel->expired()) {
            // Interrupted fleet: don't even start the remaining jobs; give
            // them the same terminal status an in-flight cancel produces.
            results[i].id = jobs[i].id;
            results[i].status = job_status::timed_out;
            results[i].error = "fleet interrupted before job started";
            continue;
        }
        run_job(jobs[i], experiment, options, results[i]);
    }
}

}  // namespace

const char* to_string(job_status status) {
    switch (status) {
        case job_status::ok: return "ok";
        case job_status::failed: return "failed";
        case job_status::timed_out: return "timed_out";
        case job_status::budget_exhausted: return "budget_exhausted";
    }
    return "?";
}

fleet_result run_fleet(const std::vector<fleet_job>& jobs,
                       const fleet_options& options) {
    fleet_result fleet;
    const unsigned threads = worker_count(options.num_threads, jobs.size());
    fleet.threads = threads;
    fleet.results.resize(jobs.size());
    if (jobs.empty()) return fleet;

    report::experiment_options experiment = options.experiment;
    experiment.ee.num_threads = 1;

    std::atomic<std::size_t> next{0};
    const wall_timer timer;
    run_workers(threads, [&] {
        fleet_worker(jobs, experiment, options, next, fleet.results);
    });
    fleet.wall_ms = timer.elapsed_ms();

    for (const job_result& r : fleet.results) {
        switch (r.status) {
            case job_status::ok: ++fleet.jobs_ok; break;
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
        if (r.status != job_status::ok) continue;
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
