// runner.hpp — the sharded multi-netlist experiment runner.
//
// The Table 3 driver ran its 15 circuits one after another; the fleet
// runner generalizes that into the repository's scaling seam: a batch of
// netlists (ITC99 reproductions, synthetic workloads, imported BLIF — any
// nl::netlist) is fanned across a worker pool, each worker running the full
// synth -> PL-map -> EE-transform -> simulate pipeline on its shard.  Jobs
// share no state.
//
// Determinism contract: per-circuit results are written to slots addressed
// by job index and each pipeline run is pure given its options, so the
// fleet result — including every experiment row — is bit-identical for any
// thread count and any work interleaving.  Only the wall-clock figures vary.
//
// Failure contract: each job runs once, under its own job_context (label =
// job id, a cancel token with deadline fleet_options::job_deadline_ms), and
// ends ok, failed, timed_out or budget_exhausted.  A non-ok job keeps its
// error text and is skipped by every fleet aggregate; run_fleet never throws
// because a job failed, so the fleet always completes with every job's
// result.  See src/runner/README.md.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/span.hpp"
#include "report/experiment.hpp"
#include "rt/cancel.hpp"

namespace plee::runner {

/// Version stamp emitted as "schema_version" by fleet_result::to_json (and
/// hence BENCH_fleet.json).  Artifacts without the field predate versioning
/// (read them as version 0); bump this on any breaking shape change.  See
/// docs/schemas.md.
inline constexpr int k_fleet_schema_version = 4;

/// One circuit to push through the pipeline.
struct fleet_job {
    std::string id;           ///< short label ("b05", "datapath-like/3", ...)
    std::string description;  ///< free-form, lands in the experiment row
    nl::netlist netlist;
};

/// Terminal state of one job.
enum class job_status : std::uint8_t {
    ok,                ///< the pipeline ran to completion
    failed,            ///< any other pipeline exception
    timed_out,         ///< job_deadline_ms expired (cooperative cancel)
    budget_exhausted,  ///< simulator event budget tripped
};

const char* to_string(job_status status);

struct fleet_options {
    /// Worker threads sharding the job list.  0 = one per hardware thread.
    unsigned num_threads = 0;
    /// Per-circuit pipeline knobs (mapping, EE search, measurement).  The
    /// runner runs each job's EE search on one thread (the job shards
    /// already fill the machine), overriding ee.num_threads.
    report::experiment_options experiment{};
    /// Per-job wall-clock deadline in ms (0 = none).  Each job gets a fresh
    /// cancel token armed with this deadline; the pipeline stages poll it
    /// cooperatively, so a hung job lands in timed_out within a bounded
    /// overshoot (one check interval) instead of hanging its worker.
    double job_deadline_ms = 0.0;
    /// Telemetry master switch, copied into every job's context.  On
    /// (default): every job runs with a trace (stage spans land in
    /// job_result::spans), a flight recorder (dumped into
    /// job_result::flight for non-ok jobs), per-vector delay histograms,
    /// and registry flushes.  Off: the pipeline runs with all of it
    /// compiled in but unwired and leaves the registry alone — the baseline
    /// arm of the instrumentation overhead A/B in bench_fleet_scaling.
    bool telemetry = true;
    /// Fleet-wide interrupt token (the tools' SIGINT/SIGTERM hook): chained
    /// as the parent of every job token, and polled between jobs, so one
    /// cancel() stops the whole fleet at its next checks.
    /// Must outlive run_fleet.
    const cancel_token* fleet_cancel = nullptr;
};

struct job_result {
    std::string id;
    report::experiment_row row;  ///< default-initialized unless the job succeeded
    double wall_ms = 0.0;  ///< this job's wall time
    job_status status = job_status::ok;
    std::string error;     ///< what() of the failure; empty on success
    /// Stage-span breakdown (partial but well-formed when the job died
    /// mid-stage).  Empty with telemetry off.
    std::vector<obs::span_record> spans;
    /// Flight-recorder dump — the job's last ~128 progress/error
    /// events.  Populated only for non-ok jobs (the post-mortem payload);
    /// empty for succeeded jobs and with telemetry off.
    std::vector<obs::fr_event> flight;
};

struct fleet_result {
    std::vector<job_result> results;  ///< in job submission order
    unsigned threads = 1;
    double wall_ms = 0.0;  ///< whole-fleet wall time

    // Outcome census: one count per job_status.
    std::size_t jobs_ok = 0;
    std::size_t jobs_failed = 0;
    std::size_t jobs_timed_out = 0;
    std::size_t jobs_budget_exhausted = 0;

    bool all_ok() const { return jobs_ok == results.size(); }

    // Aggregates over the *succeeded* jobs only — failed jobs contribute
    // neither gates nor events, so one bad netlist cannot skew the fleet
    // figures.
    std::size_t total_pl_gates = 0;
    std::size_t total_ee_gates = 0;
    std::size_t total_triggers = 0;
    /// Trigger-search sweeps = masters considered (one full support sweep
    /// each) summed over the fleet — the engine-throughput unit.
    std::size_t total_sweeps = 0;
    std::uint64_t total_sim_events = 0;
    /// Vectors measured across the succeeded jobs (both arms each).
    std::size_t total_vectors = 0;
    /// Lane-engine deposits that carried a per-lane time slab, summed over
    /// the succeeded jobs (0 at lanes = 1).
    std::uint64_t total_lane_slab_deposits = 0;
    /// Summed per-job event-simulation wall time (ms): one run per job,
    /// which measures both arms.  Unlike wall_ms this excludes
    /// synthesis/mapping/EE-search, so events/s measures the simulator
    /// engine itself.
    double total_sim_wall_ms = 0.0;
    /// Fleet-wide per-vector completion-time distributions (integer ps),
    /// merged bucket-exactly over the succeeded jobs — plain PL vs EE, the
    /// paper's comparison as distributions rather than means.  Empty with
    /// telemetry off.
    obs::hist_snapshot delay_hist_no_ee;
    obs::hist_snapshot delay_hist_ee;
    /// Per-job wall-time distribution in integer microseconds, over *all*
    /// jobs (failed ones burn wall time too).  Empty with telemetry off.
    obs::hist_snapshot job_wall_hist_us;

    double netlists_per_s() const {
        return wall_ms <= 0.0 ? 0.0
                              : 1000.0 * static_cast<double>(jobs_ok) / wall_ms;
    }
    double sweeps_per_s() const {
        return wall_ms <= 0.0 ? 0.0
                              : 1000.0 * static_cast<double>(total_sweeps) /
                                    wall_ms;
    }
    /// Simulator throughput: processed events per second of simulation wall
    /// time, summed over every measurement in the fleet.
    double sim_events_per_s() const {
        return total_sim_wall_ms <= 0.0
                   ? 0.0
                   : 1000.0 * static_cast<double>(total_sim_events) /
                         total_sim_wall_ms;
    }
    /// The divergent EE cones' share of the simulator's work: slab
    /// deposits per sim event (0 at lanes = 1, where nothing is a slab).
    double divergent_share() const {
        return total_sim_events == 0
                   ? 0.0
                   : static_cast<double>(total_lane_slab_deposits) /
                         static_cast<double>(total_sim_events);
    }
    /// Measurement throughput: vectors measured per second of simulation
    /// wall time, summed over every measurement in the fleet.
    double vectors_per_s() const {
        return total_sim_wall_ms <= 0.0
                   ? 0.0
                   : 1000.0 * static_cast<double>(total_vectors) /
                         total_sim_wall_ms;
    }
};

/// Runs every job once through the pipeline across the worker pool and
/// returns all jobs.size() results; a job's failure lands in its
/// job_result::status, never in an exception from run_fleet.
fleet_result run_fleet(const std::vector<fleet_job>& jobs,
                       const fleet_options& options = {});

/// Fleet-level summary (status census included) + per-job rows as a JSON
/// object (the schema of BENCH_fleet.json).  `include_rows = false` emits
/// the summary only, for embedding next to an existing row dump.
report::json to_json(const fleet_result& fleet, bool include_rows = true);

}  // namespace plee::runner
