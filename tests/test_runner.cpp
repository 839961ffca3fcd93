// Tests for the sharded fleet runner: bit-identical results against the
// serial single-circuit pipeline on b05/b07/b10 at several thread counts,
// aggregate accounting, graceful degradation, deadlines and the fleet-wide
// interrupt.

#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench_circuits/itc99.hpp"
#include "report/json.hpp"
#include "rt/cancel.hpp"
#include "workload/workload.hpp"

namespace plee::runner {
namespace {

report::experiment_options fast_options() {
    report::experiment_options opts;
    opts.measure.num_vectors = 25;
    return opts;
}

/// Every field that the pipeline determines (as opposed to measures in
/// wall-clock time) must agree exactly — delays included, since the
/// simulator is deterministic given the stimulus seed.
void expect_rows_identical(const report::experiment_row& a,
                           const report::experiment_row& b,
                           const std::string& label) {
    EXPECT_EQ(a.pl_gates, b.pl_gates) << label;
    EXPECT_EQ(a.ee_gates, b.ee_gates) << label;
    EXPECT_EQ(a.delay_no_ee, b.delay_no_ee) << label;
    EXPECT_EQ(a.delay_ee, b.delay_ee) << label;
    EXPECT_EQ(a.ee_detail.triggers_added, b.ee_detail.triggers_added) << label;
    ASSERT_EQ(a.ee_detail.applied.size(), b.ee_detail.applied.size()) << label;
    for (std::size_t i = 0; i < a.ee_detail.applied.size(); ++i) {
        const ee::applied_trigger& x = a.ee_detail.applied[i];
        const ee::applied_trigger& y = b.ee_detail.applied[i];
        EXPECT_EQ(x.master, y.master) << label;
        EXPECT_EQ(x.trigger, y.trigger) << label;
        EXPECT_EQ(x.candidate.support, y.candidate.support) << label;
        EXPECT_EQ(x.candidate.function, y.candidate.function) << label;
    }
}

TEST(FleetRunner, BitIdenticalToSerialPipelineAtAnyThreadCount) {
    const std::vector<std::string> ids = {"b05", "b07", "b10"};
    std::vector<fleet_job> jobs;
    std::vector<report::experiment_row> serial;
    for (const std::string& id : ids) {
        fleet_job job;
        job.id = id;
        job.description = id;
        job.netlist = bench::build_benchmark(id);
        serial.push_back(
            report::run_ee_experiment(id, job.netlist, fast_options()));
        jobs.push_back(std::move(job));
    }

    for (unsigned threads : {1u, 2u, 5u}) {
        fleet_options opts;
        opts.num_threads = threads;
        opts.experiment = fast_options();
        const fleet_result fleet = run_fleet(jobs, opts);
        ASSERT_EQ(fleet.results.size(), ids.size());
        for (std::size_t i = 0; i < ids.size(); ++i) {
            EXPECT_EQ(fleet.results[i].id, ids[i]);
            expect_rows_identical(fleet.results[i].row, serial[i],
                                  ids[i] + " threads=" + std::to_string(threads));
        }
    }
}

TEST(FleetRunner, AggregatesMatchTheRows) {
    std::vector<fleet_job> jobs;
    for (int i = 0; i < 3; ++i) {
        fleet_job job;
        job.id = "w" + std::to_string(i);
        job.description = job.id;
        job.netlist = wl::generate(wl::scenario_params(
            wl::scenario::random_dag, 50, 100 + static_cast<std::uint64_t>(i)));
        jobs.push_back(std::move(job));
    }
    fleet_options opts;
    opts.num_threads = 2;
    opts.experiment.measure.num_vectors = 5;
    const fleet_result fleet = run_fleet(jobs, opts);

    std::size_t pl = 0, ee = 0, sweeps = 0;
    for (const job_result& r : fleet.results) {
        pl += r.row.pl_gates;
        ee += r.row.ee_gates;
        sweeps += r.row.ee_detail.masters_considered;
        EXPECT_GE(r.wall_ms, 0.0);
    }
    EXPECT_EQ(fleet.total_pl_gates, pl);
    EXPECT_EQ(fleet.total_ee_gates, ee);
    EXPECT_EQ(fleet.total_sweeps, sweeps);
    EXPECT_EQ(fleet.threads, 2u);
    EXPECT_GT(fleet.wall_ms, 0.0);
    EXPECT_GT(fleet.netlists_per_s(), 0.0);
    EXPECT_GT(fleet.sweeps_per_s(), 0.0);

    const report::json j = to_json(fleet);
    const std::string dump = j.dump();
    EXPECT_NE(dump.find("\"netlists_per_s\""), std::string::npos);
    EXPECT_NE(dump.find("\"rows\""), std::string::npos);
}

TEST(FleetRunner, ZeroVectorJobFailsWithTheMeasurementError) {
    // A measurement over no vectors would report a 0 ns delay; the job must
    // land failed with the measurement's own message instead.
    fleet_job job;
    job.id = "w";
    job.description = "w";
    job.netlist = wl::generate(wl::scenario_params(wl::scenario::random_dag, 20, 1));
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{64}}) {
        fleet_options opts;
        opts.experiment.measure.num_vectors = 0;
        opts.experiment.measure.lanes = lanes;
        const fleet_result fleet = run_fleet({job}, opts);
        ASSERT_EQ(fleet.results.size(), 1u);
        EXPECT_EQ(fleet.results[0].status, job_status::failed) << lanes;
        EXPECT_NE(fleet.results[0].error.find("num_vectors must be > 0"),
                  std::string::npos)
            << fleet.results[0].error;
        EXPECT_EQ(fleet.jobs_ok, 0u);
    }
}

/// A job whose netlist fails validation at the mapping stage.
fleet_job malformed_job(const std::string& id) {
    fleet_job bad;
    bad.id = id;
    bad.description = "dangling dff";
    bad.netlist.add_input("a");
    bad.netlist.add_dff(nl::k_invalid_cell, false);  // never connected
    return bad;
}

TEST(FleetRunner, GracefulDegradationKeepsSurvivors) {
    fleet_job good;
    good.id = "ok";
    good.description = "ok";
    good.netlist = wl::generate(wl::scenario_params(wl::scenario::random_dag, 20, 1));
    const fleet_job bad = malformed_job("bad");

    fleet_options opts;
    opts.experiment.measure.num_vectors = 5;
    const fleet_result fleet = run_fleet({good, bad}, opts);

    ASSERT_EQ(fleet.results.size(), 2u);
    EXPECT_EQ(fleet.results[0].status, job_status::ok);
    EXPECT_TRUE(fleet.results[0].error.empty());
    EXPECT_EQ(fleet.results[1].status, job_status::failed);
    EXPECT_FALSE(fleet.results[1].error.empty());
    // The job ran once: its post-mortem holds exactly one terminal note.
    ASSERT_EQ(fleet.results[1].flight.size(), 1u);
    EXPECT_EQ(std::string(fleet.results[1].flight[0].tag), "job.error");
    EXPECT_EQ(fleet.results[1].flight[0].note, fleet.results[1].error);

    EXPECT_FALSE(fleet.all_ok());
    EXPECT_EQ(fleet.jobs_ok, 1u);
    EXPECT_EQ(fleet.jobs_failed, 1u);
    EXPECT_EQ(fleet.jobs_timed_out, 0u);

    // The failed job's default-initialized row stays out of the aggregates.
    EXPECT_EQ(fleet.total_pl_gates, fleet.results[0].row.pl_gates);
    EXPECT_EQ(fleet.total_ee_gates, fleet.results[0].row.ee_gates);

    const std::string dump = to_json(fleet).dump();
    EXPECT_NE(dump.find("\"jobs_failed\": 1"), std::string::npos);
    EXPECT_NE(dump.find("\"status\": \"failed\""), std::string::npos);
    EXPECT_NE(dump.find("\"error\""), std::string::npos);
}

TEST(FleetRunner, FailingJobsDoNotPerturbSurvivorRows) {
    // The fleet-integrity matrix: two healthy benchmark jobs ride alongside a
    // much larger job that exhausts the fleet-wide simulator event budget
    // mid-measurement and a job that fails validation outright.  At every
    // thread count the fleet must return all four results, mark exactly the
    // two bad jobs non-ok, and leave the survivors' rows bit-identical to the
    // unbudgeted serial single-circuit pipeline.
    const std::vector<std::string> ids = {"b05", "b07"};
    std::vector<fleet_job> jobs;
    std::vector<report::experiment_row> serial;
    for (const std::string& id : ids) {
        fleet_job job;
        job.id = id;
        job.description = id;
        job.netlist = bench::build_benchmark(id);
        serial.push_back(
            report::run_ee_experiment(id, job.netlist, fast_options()));
        jobs.push_back(std::move(job));
    }
    fleet_job starved;  // trips sim::budget_exhausted in the baseline measure
    starved.id = "starved";
    starved.description = "starved";
    starved.netlist = bench::build_benchmark("b15");
    jobs.push_back(std::move(starved));
    jobs.push_back(malformed_job("bad"));

    for (unsigned threads : {1u, 2u, 5u}) {
        fleet_options opts;
        opts.num_threads = threads;
        opts.experiment = fast_options();
        // At 25 vectors a survivor's measurement deposits at most 51725
        // events (b05 with EE), b15's plain one 201525.
        opts.experiment.measure.sim.max_events = 100'000;
        const fleet_result fleet = run_fleet(jobs, opts);
        const std::string label = "threads=" + std::to_string(threads);

        ASSERT_EQ(fleet.results.size(), jobs.size()) << label;
        EXPECT_EQ(fleet.jobs_ok, 2u) << label;
        EXPECT_EQ(fleet.jobs_budget_exhausted, 1u) << label;
        EXPECT_EQ(fleet.jobs_failed, 1u) << label;
        EXPECT_EQ(fleet.results[2].status, job_status::budget_exhausted)
            << label;
        // Typed context: circuit id, event count and queue kind in what().
        EXPECT_NE(fleet.results[2].error.find("starved"), std::string::npos)
            << fleet.results[2].error;
        EXPECT_NE(fleet.results[2].error.find("event budget exhausted"),
                  std::string::npos)
            << fleet.results[2].error;
        EXPECT_EQ(fleet.results[3].status, job_status::failed) << label;
        for (std::size_t i = 0; i < ids.size(); ++i) {
            EXPECT_EQ(fleet.results[i].status, job_status::ok) << label;
            expect_rows_identical(fleet.results[i].row, serial[i],
                                  ids[i] + " " + label);
        }
    }
}

TEST(FleetRunner, DeadlineStopsTheGoldenRunWithinOneBlock) {
    // The golden model over 80000 vectors of a 1000-LUT netlist runs
    // several times longer than the deadline (about 350 ms on a 4-vCPU
    // host); polled once per 64-vector block, it stops the job well within
    // twice the deadline.  Two inputs keep the stimulus draw, which is
    // polled too, a few ms even under TSan's slowdown.
    fleet_job job;
    job.id = "slow";
    job.description = "slow";
    wl::workload_params params = wl::scenario_params(wl::scenario::random_dag, 1000, 3);
    params.num_inputs = 2;
    job.netlist = wl::generate(params);
    fleet_options opts;
    opts.num_threads = 1;
    opts.experiment.measure.num_vectors = 80000;
    opts.job_deadline_ms = 100.0;
    const fleet_result fleet = run_fleet({job}, opts);
    ASSERT_EQ(fleet.results.size(), 1u);
    const job_result& r = fleet.results[0];
    EXPECT_EQ(r.status, job_status::timed_out);
    EXPECT_NE(r.error.find("sim.golden[slow]"), std::string::npos) << r.error;
    EXPECT_LT(r.wall_ms, 200.0);
    EXPECT_EQ(fleet.jobs_timed_out, 1u);
}

TEST(FleetRunner, DeadlineStopsTheStimulusDrawWithinOneBlock) {
    // Drawing 200000 vectors takes about 60 ms on a 4-vCPU host; polled once
    // per 64-vector block, a 5 ms deadline stops the job inside the draw.
    fleet_job job;
    job.id = "draw";
    job.description = "draw";
    job.netlist = wl::generate(wl::scenario_params(wl::scenario::random_dag, 150, 3));
    fleet_options opts;
    opts.num_threads = 1;
    opts.experiment.measure.num_vectors = 200000;
    opts.job_deadline_ms = 5.0;
    const fleet_result fleet = run_fleet({job}, opts);
    ASSERT_EQ(fleet.results.size(), 1u);
    const job_result& r = fleet.results[0];
    EXPECT_EQ(r.status, job_status::timed_out);
    EXPECT_NE(r.error.find("sim.stimulus[draw]"), std::string::npos) << r.error;
    EXPECT_LT(r.wall_ms, 30.0);
}

TEST(FleetRunner, InterruptedFleetStartsNoJob) {
    cancel_token interrupt;
    interrupt.cancel();
    std::vector<fleet_job> jobs;
    for (int i = 0; i < 4; ++i) {
        fleet_job job;
        job.id = "w" + std::to_string(i);
        job.description = job.id;
        job.netlist = wl::generate(wl::scenario_params(
            wl::scenario::random_dag, 20, static_cast<std::uint64_t>(i)));
        jobs.push_back(std::move(job));
    }
    fleet_options opts;
    opts.num_threads = 2;
    opts.fleet_cancel = &interrupt;
    const fleet_result fleet = run_fleet(jobs, opts);
    ASSERT_EQ(fleet.results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const job_result& r = fleet.results[i];
        EXPECT_EQ(r.id, jobs[i].id);
        EXPECT_EQ(r.status, job_status::timed_out) << r.id;
        EXPECT_EQ(r.error, "fleet interrupted before job started");
        EXPECT_TRUE(r.spans.empty()) << r.id;
    }
    EXPECT_EQ(fleet.jobs_timed_out, jobs.size());
    EXPECT_EQ(fleet.jobs_ok, 0u);
}

TEST(FleetRunner, EmptyFleetIsANoop) {
    const fleet_result fleet = run_fleet({}, fleet_options{});
    EXPECT_TRUE(fleet.results.empty());
    EXPECT_EQ(fleet.netlists_per_s(), 0.0);
}

}  // namespace
}  // namespace plee::runner
