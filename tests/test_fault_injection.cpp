// Tests for the deterministic fault-injection harness and the fleet
// runner's recovery paths driven through it: spec parsing, stateless
// decision determinism, thread-count-invariant fleet outcomes under
// injection, deadline-driven cancellation, and retry with backoff.

#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "report/experiment.hpp"
#include "rt/errors.hpp"
#include "runner/runner.hpp"
#include "workload/workload.hpp"

namespace plee {
namespace {

/// The injector is process-wide state; every test leaves it disarmed so the
/// rest of the suite runs on the inert fast path.
class FaultInjection : public ::testing::Test {
protected:
    void TearDown() override { fault::injector::instance().clear(); }
};

report::experiment_options tiny_options() {
    report::experiment_options opts;
    opts.measure.num_vectors = 4;
    return opts;
}

runner::fleet_job tiny_job(const std::string& id, std::uint64_t seed) {
    runner::fleet_job job;
    job.id = id;
    job.description = id;
    job.netlist =
        wl::generate(wl::scenario_params(wl::scenario::random_dag, 30, seed));
    return job;
}

/// Replays the runner's per-attempt decision through the real check API:
/// does `synth.map` fire for (job, attempt) under the current arming?  The
/// pipeline maps once per run, at site 0.
bool map_attempt_fails(const std::string& id, unsigned attempt) {
    fault::injector::scope scope(
        fault::injector::hash(id + "#" + std::to_string(attempt)));
    try {
        fault::injector::instance().check("synth.map", 0);
        return false;
    } catch (const fault::injected_fault&) {
        return true;
    }
}

TEST_F(FaultInjection, InertWhenUnconfigured) {
    fault::injector& inj = fault::injector::instance();
    inj.clear();
    EXPECT_FALSE(inj.enabled());
    EXPECT_NO_THROW(inj.check("sim.fire", 0));
    EXPECT_NO_THROW(inj.check("ee.search", 12345));
}

TEST_F(FaultInjection, SpecParsing) {
    fault::injector& inj = fault::injector::instance();
    inj.configure("seed=42;ee.search=0.5;sim.fire=1:delay=5");
    EXPECT_TRUE(inj.enabled());

    // Unknown points, malformed entries and out-of-range probabilities are
    // rejected...
    EXPECT_THROW(inj.configure("bogus.point=1"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search=1.5"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search=x"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search=1:frobnicate"),
                 std::invalid_argument);
    EXPECT_THROW(inj.configure("sim.fire=1:delay=-2"), std::invalid_argument);
    // Every number must parse whole: no trailing garbage, no NaN.
    EXPECT_THROW(inj.configure("seed=12abc;ee.search=1"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search=0.5x"), std::invalid_argument);
    EXPECT_THROW(inj.configure("ee.search=nan"), std::invalid_argument);
    EXPECT_THROW(inj.configure("sim.fire=1:delay=5ms"), std::invalid_argument);
    // ...and a malformed tail arms nothing: the previous config survives.
    EXPECT_THROW(inj.configure("ee.search=1;bogus.point=1"),
                 std::invalid_argument);
    EXPECT_TRUE(inj.enabled());

    EXPECT_THROW(inj.arm("bogus.point", {}), std::invalid_argument);

    inj.configure("");
    EXPECT_FALSE(inj.enabled());
}

TEST_F(FaultInjection, OnlyPipelinePointsAreKnown) {
    // Specs written for the trigger memo's points or its ':torn' fate must
    // fail loudly, not arm nothing.
    fault::injector& inj = fault::injector::instance();
    for (const char* point : {"cache.lookup", "cache.save", "cache.load"}) {
        EXPECT_FALSE(fault::injector::known_point(point)) << point;
        EXPECT_THROW(inj.configure(std::string(point) + "=1"),
                     std::invalid_argument)
            << point;
    }
    EXPECT_THROW(inj.configure("ee.search=1:torn"), std::invalid_argument);
    EXPECT_FALSE(inj.enabled());
}

TEST_F(FaultInjection, DecisionsAreStatelessScopedAndSeeded) {
    fault::injector& inj = fault::injector::instance();
    inj.configure("seed=1;synth.map=0.5:permanent");

    // Certainty at the extremes.
    fault::point_config always;
    always.probability = 1.0;
    inj.arm("ee.search", always);
    EXPECT_THROW(inj.check("ee.search", 7), fault::injected_fault);
    fault::point_config never;
    never.probability = 0.0;
    inj.arm("ee.search", never);
    EXPECT_NO_THROW(inj.check("ee.search", 7));

    // p = 0.5 decisions are a pure function of (seed, point, scope, site):
    // the same sweep replays identically, and a different scope or seed
    // produces a different (still deterministic) pattern.
    const auto sweep = [&]() {
        std::vector<bool> fired;
        for (std::uint64_t site = 0; site < 64; ++site) {
            try {
                inj.check("synth.map", site);
                fired.push_back(false);
            } catch (const fault::injected_fault& e) {
                EXPECT_EQ(e.point(), "synth.map");
                EXPECT_EQ(e.classify(), failure_class::permanent);
                fired.push_back(true);
            }
        }
        return fired;
    };
    const std::vector<bool> base = sweep();
    EXPECT_NE(std::count(base.begin(), base.end(), true), 0);
    EXPECT_NE(std::count(base.begin(), base.end(), false), 0);
    EXPECT_EQ(sweep(), base);

    {
        fault::injector::scope scope(fault::injector::hash("job#1"));
        const std::vector<bool> scoped = sweep();
        EXPECT_NE(scoped, base);
        EXPECT_EQ(sweep(), scoped);
    }
    // Scope restored on destruction.
    EXPECT_EQ(sweep(), base);

    inj.set_seed(2);
    EXPECT_NE(sweep(), base);
}

TEST_F(FaultInjection, BackoffIsDeterministicAndExponential) {
    const double base_ms = 5.0;
    for (unsigned attempt = 1; attempt <= 6; ++attempt) {
        const double b = runner::retry_backoff_ms("b05", attempt, base_ms);
        EXPECT_EQ(b, runner::retry_backoff_ms("b05", attempt, base_ms));
        const double expo = base_ms * static_cast<double>(1u << (attempt - 1));
        EXPECT_GE(b, expo);
        EXPECT_LT(b, expo + base_ms);  // jitter in [0, base)
    }
    // Decorrelated across jobs: the jitter differs.
    EXPECT_NE(runner::retry_backoff_ms("b05", 1, base_ms),
              runner::retry_backoff_ms("b07", 1, base_ms));
    EXPECT_EQ(runner::retry_backoff_ms("b05", 1, 0.0), 0.0);
}

// Acceptance (a): arm a permanent fault at p = 0.4; which k of the N jobs
// fail is a deterministic property of the spec, not of scheduling — every
// thread count yields the same k failures, and the survivors' rows are
// bit-identical to a clean serial pipeline (a non-firing check has no
// effect on results).
TEST_F(FaultInjection, FleetOutcomesUnderInjectionAreThreadCountInvariant) {
    std::vector<runner::fleet_job> jobs;
    std::vector<report::experiment_row> clean;
    for (std::uint64_t i = 0; i < 6; ++i) {
        jobs.push_back(tiny_job("w" + std::to_string(i), 100 + i));
        clean.push_back(report::run_ee_experiment(
            jobs.back().id, jobs.back().netlist, tiny_options()));
    }

    fault::injector::instance().configure("seed=9;synth.map=0.4:permanent");
    std::vector<runner::job_status> statuses;
    for (unsigned threads : {1u, 2u, 5u}) {
        runner::fleet_options opts;
        opts.num_threads = threads;
        opts.experiment = tiny_options();
        const runner::fleet_result fleet = runner::run_fleet(jobs, opts);
        ASSERT_EQ(fleet.results.size(), jobs.size());
        if (threads == 1) {
            for (const runner::job_result& r : fleet.results) {
                statuses.push_back(r.status);
            }
            // The seed must exercise both paths for the test to mean much.
            ASSERT_GT(fleet.jobs_failed, 0u);
            ASSERT_GT(fleet.jobs_ok, 0u);
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const runner::job_result& r = fleet.results[i];
            EXPECT_EQ(r.status, statuses[i])
                << jobs[i].id << " threads=" << threads;
            if (r.status == runner::job_status::ok) {
                EXPECT_EQ(r.row.pl_gates, clean[i].pl_gates) << jobs[i].id;
                EXPECT_EQ(r.row.ee_gates, clean[i].ee_gates) << jobs[i].id;
                EXPECT_EQ(r.row.delay_no_ee, clean[i].delay_no_ee)
                    << jobs[i].id;
                EXPECT_EQ(r.row.delay_ee, clean[i].delay_ee) << jobs[i].id;
            } else {
                EXPECT_NE(r.error.find("injected fault at synth.map"),
                          std::string::npos)
                    << r.error;
                EXPECT_EQ(r.attempts, 1u);  // permanent: no retry
            }
        }
    }
}

// Acceptance (b): a job made pathologically slow by delay injection lands in
// timed_out, and the cooperative cancellation bounds its wall time to well
// under twice the deadline.
TEST_F(FaultInjection, DeadlineCancelsSlowJobWithinTwiceTheDeadline) {
    // Every cancel-check interval sleeps 5 ms, so the measurement alone
    // wants several times the deadline — expiry is guaranteed mid-measure,
    // far from any completes-just-in-time knife edge.
    const double deadline_ms = 150.0;
    fault::injector::instance().configure("sim.fire=1:delay=5");

    runner::fleet_job slow = tiny_job("slow", 8);
    slow.netlist =
        wl::generate(wl::scenario_params(wl::scenario::datapath_like, 150, 8));

    runner::fleet_options opts;
    opts.num_threads = 1;
    opts.experiment = tiny_options();
    opts.experiment.measure.num_vectors = 50;
    opts.job_deadline_ms = deadline_ms;
    const runner::fleet_result fleet = runner::run_fleet({slow}, opts);

    ASSERT_EQ(fleet.results.size(), 1u);
    const runner::job_result& timed = fleet.results[0];
    EXPECT_EQ(timed.status, runner::job_status::timed_out);
    EXPECT_NE(timed.error.find("deadline exceeded"), std::string::npos)
        << timed.error;
    EXPECT_EQ(timed.attempts, 1u);  // timeouts never retry
    EXPECT_LT(timed.wall_ms, 2.0 * deadline_ms);
    EXPECT_EQ(fleet.jobs_timed_out, 1u);
}

// Acceptance (c): a transient fault that fires on attempt 1 but not on
// attempt 2 (per-attempt scopes are part of the decision) is healed by the
// retry loop: the job lands in retried_ok with attempts > 1 and a clean row.
TEST_F(FaultInjection, TransientFaultIsHealedByRetry) {
    fault::injector::instance().configure("seed=5;synth.map=0.5:transient");

    // Find a job id whose deterministic fate is fail-then-succeed, through
    // the same check API the pipeline uses.
    std::string victim;
    for (int i = 0; i < 64 && victim.empty(); ++i) {
        const std::string id = "r" + std::to_string(i);
        if (map_attempt_fails(id, 1) && !map_attempt_fails(id, 2)) victim = id;
    }
    ASSERT_FALSE(victim.empty())
        << "no fail-then-succeed id in 64 candidates at this seed";

    const runner::fleet_job job = tiny_job(victim, 3);
    const report::experiment_row clean = [&] {
        fault::injector::instance().clear();
        const report::experiment_row row =
            report::run_ee_experiment(victim, job.netlist, tiny_options());
        fault::injector::instance().configure(
            "seed=5;synth.map=0.5:transient");
        return row;
    }();

    runner::fleet_options opts;
    opts.num_threads = 1;
    opts.experiment = tiny_options();
    opts.retry_backoff_base_ms = 0.5;  // keep the test fast

    // Without retries the transient failure is terminal...
    const runner::fleet_result no_retry = runner::run_fleet({job}, opts);
    EXPECT_EQ(no_retry.results[0].status, runner::job_status::failed);
    EXPECT_EQ(no_retry.results[0].attempts, 1u);

    // ...with retries the second attempt lands, and the row matches the
    // never-faulted pipeline exactly.
    opts.max_retries = 2;
    const runner::fleet_result fleet = runner::run_fleet({job}, opts);
    const runner::job_result& r = fleet.results[0];
    EXPECT_EQ(r.status, runner::job_status::retried_ok);
    EXPECT_EQ(r.attempts, 2u);
    EXPECT_TRUE(r.error.empty());
    EXPECT_EQ(fleet.jobs_ok, 1u);
    EXPECT_EQ(fleet.jobs_retried, 1u);
    EXPECT_EQ(r.row.pl_gates, clean.pl_gates);
    EXPECT_EQ(r.row.ee_gates, clean.ee_gates);
    EXPECT_EQ(r.row.delay_ee, clean.delay_ee);

    // And the whole episode is reproducible.
    const runner::fleet_result replay = runner::run_fleet({job}, opts);
    EXPECT_EQ(replay.results[0].status, runner::job_status::retried_ok);
    EXPECT_EQ(replay.results[0].attempts, 2u);
}

}  // namespace
}  // namespace plee
