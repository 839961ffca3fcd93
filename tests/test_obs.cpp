// Tests for the telemetry subsystem (src/obs/): histogram bucket math and
// exact-rank percentiles, snapshot merge algebra, the registry,
// trace span nesting (including exception unwind), flight-recorder ring
// semantics, the JSON / Prometheus sinks, and the end-to-end contracts the
// runner exposes — registry counters reconciling with per-row simulator
// stats at 1 and 4 threads, and a budget-exhausted job's report carrying a
// non-empty flight dump plus a well-formed span breakdown.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/sink.hpp"
#include "obs/span.hpp"
#include "report/json.hpp"
#include "runner/runner.hpp"
#include "workload/workload.hpp"

namespace plee::obs {
namespace {

// --- Histogram bucket math ------------------------------------------------

TEST(ObsHistogram, BucketIndexRoundTripsAndBoundsError) {
    // The exact region: one bucket per value.
    for (std::uint64_t v = 0; v < k_hist_sub_count; ++v) {
        EXPECT_EQ(hist_bucket_index(v), v);
        EXPECT_EQ(hist_bucket_upper(hist_bucket_index(v)), v);
    }
    // Beyond it: v <= upper(index(v)) and the bucket is < 1/128 of v wide.
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = x;
        const std::uint32_t idx = hist_bucket_index(v);
        ASSERT_LT(idx, k_hist_num_buckets);
        const std::uint64_t upper = hist_bucket_upper(idx);
        ASSERT_GE(upper, v);
        ASSERT_LE(static_cast<double>(upper - v),
                  static_cast<double>(v) / 128.0 + 1.0);
        // upper is the last value in its bucket.
        EXPECT_EQ(hist_bucket_index(upper), idx);
        if (upper + 1 != 0) EXPECT_EQ(hist_bucket_index(upper + 1), idx + 1);
    }
}

TEST(ObsHistogram, ExactPercentilesInTheOnePerBucketRegion) {
    hist_snapshot h;
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    EXPECT_EQ(h.count, 100u);
    EXPECT_EQ(h.sum, 5050u);
    EXPECT_EQ(h.min, 1u);
    EXPECT_EQ(h.max, 100u);
    // Rank ceil(p/100 * 100) over 1..100 reads exactly p.
    EXPECT_EQ(h.value_at_percentile(50.0), 50u);
    EXPECT_EQ(h.value_at_percentile(90.0), 90u);
    EXPECT_EQ(h.value_at_percentile(99.0), 99u);
    EXPECT_EQ(h.value_at_percentile(100.0), 100u);
    EXPECT_EQ(h.value_at_percentile(0.0), 1u);
    EXPECT_EQ(h.value_at_percentile(1.0), 1u);
    EXPECT_EQ(h.value_at_percentile(-5.0), 1u);
    EXPECT_EQ(h.value_at_percentile(250.0), 100u);
    EXPECT_EQ(hist_snapshot{}.value_at_percentile(50.0), 0u);
}

TEST(ObsHistogram, PercentilesWithinBucketErrorOnLargeValues) {
    hist_snapshot h;
    std::vector<std::uint64_t> vals;
    std::uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 10000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = 1000000 + x % 1000000000ull;  // ~ps-scale range
        vals.push_back(v);
        h.record(v);
    }
    std::sort(vals.begin(), vals.end());
    for (const double p : {50.0, 90.0, 99.0}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(p / 100.0 * static_cast<double>(vals.size())));
        const double exact = static_cast<double>(vals[rank - 1]);
        const double approx = static_cast<double>(h.value_at_percentile(p));
        EXPECT_GE(approx, exact);  // reads the bucket upper bound
        EXPECT_LE((approx - exact) / exact, 1.0 / 100.0) << "p" << p;
    }
    EXPECT_EQ(h.value_at_percentile(100.0), vals.back());
}

TEST(ObsHistogram, MergeIsAssociativeCommutativeAndExact) {
    hist_snapshot all;  // every value recorded into one snapshot
    const auto fill = [&all](std::uint64_t seed, int n) {
        hist_snapshot h;
        std::uint64_t x = seed;
        for (int i = 0; i < n; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(x % 100000);
            all.record(x % 100000);
        }
        return h;
    };
    const hist_snapshot a = fill(1, 500);
    const hist_snapshot b = fill(2, 300);
    const hist_snapshot c = fill(3, 700);

    hist_snapshot ab = a;
    ab.merge(b);
    hist_snapshot ba = b;
    ba.merge(a);
    EXPECT_EQ(ab, ba);

    hist_snapshot ab_c = ab;
    ab_c.merge(c);
    hist_snapshot bc = b;
    bc.merge(c);
    hist_snapshot a_bc = a;
    a_bc.merge(bc);
    EXPECT_EQ(ab_c, a_bc);
    EXPECT_EQ(ab_c.count, 1500u);
    EXPECT_EQ(ab_c.sum, a.sum + b.sum + c.sum);
    EXPECT_EQ(ab_c, all);  // bucket for bucket what recording gives

    // Merging buckets that are all present already doubles each count.
    hist_snapshot aa = a;
    aa.merge(a);
    ASSERT_EQ(aa.buckets.size(), a.buckets.size());
    for (std::size_t i = 0; i < a.buckets.size(); ++i) {
        EXPECT_EQ(aa.buckets[i].first, a.buckets[i].first);
        EXPECT_EQ(aa.buckets[i].second, 2 * a.buckets[i].second);
    }
    EXPECT_EQ(aa.count, 2 * a.count);

    // Merging an empty snapshot is the identity, both ways.
    hist_snapshot a_empty = a;
    a_empty.merge(hist_snapshot{});
    EXPECT_EQ(a_empty, a);
    hist_snapshot empty_a;
    empty_a.merge(a);
    EXPECT_EQ(empty_a, a);
}

TEST(ObsHistogram, ResidentFormMatchesSparseFormAndIsThreadSafe) {
    histogram resident;
    hist_snapshot sparse;
    for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 4096ull, 999999ull}) {
        resident.record(v);
        sparse.record(v);
    }
    EXPECT_EQ(resident.snapshot(), sparse);

    resident.reset();
    EXPECT_TRUE(resident.snapshot().empty());

    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&resident, t] {
            for (int i = 0; i < 1000; ++i) {
                resident.record(static_cast<std::uint64_t>(t * 1000 + i));
            }
        });
    }
    for (std::thread& t : pool) t.join();
    const hist_snapshot snap = resident.snapshot();
    EXPECT_EQ(snap.count, 4000u);
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, 3999u);
    EXPECT_EQ(snap.sum, 4000u * 3999u / 2);
}

// --- Registry -------------------------------------------------------------

TEST(ObsRegistry, CounterSumsAcrossThreads) {
    counter c;
    std::vector<std::thread> pool;
    for (int t = 0; t < 8; ++t) {
        pool.emplace_back([&c] {
            for (int i = 0; i < 10000; ++i) c.add();
        });
    }
    for (std::thread& t : pool) t.join();
    EXPECT_EQ(c.value(), 80000u);
}

TEST(ObsRegistry, ReferencesSurviveResetAndSnapshotIsSorted) {
    registry& reg = registry::global();
    counter& c = reg.get_counter("test.obs.zz");
    counter& c2 = reg.get_counter("test.obs.aa");
    gauge& g = reg.get_gauge("test.obs.depth");
    c.add(7);
    c2.add(1);
    g.set(-3);
    EXPECT_EQ(&reg.get_counter("test.obs.zz"), &c);  // stable reference

    reg.reset();
    EXPECT_EQ(c.value(), 0u);  // zeroed, not destroyed
    EXPECT_EQ(g.value(), 0);
    c.add(2);
    EXPECT_EQ(reg.get_counter("test.obs.zz").value(), 2u);

    const metrics_snapshot snap = reg.snapshot();
    EXPECT_TRUE(std::is_sorted(
        snap.counters.begin(), snap.counters.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; }));
}

// --- Trace spans ----------------------------------------------------------

TEST(ObsSpan, NestingAttributesParentsByOpenOrder) {
    trace t;
    {
        const scoped_span a(&t, "a");
        { const scoped_span b(&t, "a.b"); }
        { const scoped_span c(&t, "a.c"); }
    }
    { const scoped_span d(&t, "d"); }
    ASSERT_EQ(t.spans().size(), 4u);
    EXPECT_EQ(t.spans()[0].name, "a");
    EXPECT_EQ(t.spans()[0].parent, -1);
    EXPECT_EQ(t.spans()[1].name, "a.b");
    EXPECT_EQ(t.spans()[1].parent, 0);
    EXPECT_EQ(t.spans()[2].name, "a.c");
    EXPECT_EQ(t.spans()[2].parent, 0);
    EXPECT_EQ(t.spans()[3].name, "d");
    EXPECT_EQ(t.spans()[3].parent, -1);
    for (const span_record& s : t.spans()) {
        EXPECT_GE(s.dur_ms, 0.0);
        EXPECT_GE(s.start_ms, 0.0);
    }
    // Children start no earlier than their parent.
    EXPECT_GE(t.spans()[1].start_ms, t.spans()[0].start_ms);
}

TEST(ObsSpan, ExceptionUnwindClosesSpansAndKeepsTraceWellFormed) {
    trace t;
    try {
        const scoped_span outer(&t, "outer");
        const scoped_span inner(&t, "inner");
        throw std::runtime_error("boom");
    } catch (const std::runtime_error&) {
    }
    ASSERT_EQ(t.spans().size(), 2u);
    EXPECT_EQ(t.spans()[1].parent, 0);
    // The cursor unwound with the spans: a new span is a root again.
    { const scoped_span after(&t, "after"); }
    EXPECT_EQ(t.spans()[2].parent, -1);

    // Null trace is a no-op everywhere.
    { const scoped_span nop(nullptr, "x"); }
}

// --- Flight recorder ------------------------------------------------------

TEST(ObsFlightRecorder, RingWrapsKeepingNewestOldestFirst) {
    flight_recorder r(4);
    EXPECT_EQ(r.capacity(), 4u);
    EXPECT_TRUE(r.dump().empty());
    for (std::uint64_t i = 0; i < 10; ++i) r.record("tick", i, 100 + i);
    EXPECT_EQ(r.total_recorded(), 10u);
    const std::vector<fr_event> events = r.dump();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_STREQ(events[i].tag, "tick");
        EXPECT_EQ(events[i].a, 6 + i);  // the last four, oldest first
        EXPECT_EQ(events[i].b, 106 + i);
    }
    EXPECT_TRUE(std::is_sorted(
        events.begin(), events.end(),
        [](const fr_event& x, const fr_event& y) { return x.t_ms < y.t_ms; }));

    r.record_note("err", "context", 5);
    EXPECT_EQ(r.dump().back().note, "context");

    // Degenerate capacity coerces to something usable.
    flight_recorder tiny(0);
    tiny.record("x");
    EXPECT_EQ(tiny.dump().size(), 1u);
}

// --- Sinks ----------------------------------------------------------------

TEST(ObsSink, JsonDumpCompactIsOneLine) {
    report::json j = report::json::object();
    j.set("a", report::json::number(1));
    report::json arr = report::json::array();
    arr.push(report::json::str("x\"y"));
    arr.push(report::json::boolean(true));
    j.set("b", std::move(arr));
    EXPECT_EQ(j.dump_compact(), "{\"a\":1,\"b\":[\"x\\\"y\",true]}");
}

TEST(ObsSink, HistToJsonCarriesSummaryAndOptionalBuckets) {
    hist_snapshot h;
    h.record(10);
    h.record(20);
    h.record(30);
    const std::string summary = hist_to_json(h).dump_compact();
    EXPECT_NE(summary.find("\"count\":3"), std::string::npos);
    EXPECT_NE(summary.find("\"min\":10"), std::string::npos);
    EXPECT_NE(summary.find("\"max\":30"), std::string::npos);
    EXPECT_EQ(summary.find("\"buckets\""), std::string::npos);
    const std::string full = hist_to_json(h, 1.0, true).dump_compact();
    EXPECT_NE(full.find("\"buckets\":[[10,1],[20,1],[30,1]]"),
              std::string::npos);
    EXPECT_NE(hist_to_json(hist_snapshot{}).dump_compact().find("\"count\":0"),
              std::string::npos);
}

TEST(ObsSink, PrometheusExpositionIsWellFormed) {
    metrics_snapshot snap;
    snap.counters.emplace_back("test.hits", 3);
    snap.gauges.emplace_back("test.depth", -2);
    hist_snapshot h;
    for (std::uint64_t v = 1; v <= 100; ++v) h.record(v);
    snap.histograms.emplace_back("test.lat_us", h);

    const std::string text = to_prometheus(snap);
    EXPECT_NE(text.find("# TYPE plee_test_hits_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("plee_test_hits_total 3\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE plee_test_depth gauge"), std::string::npos);
    EXPECT_NE(text.find("plee_test_depth -2\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE plee_test_lat_us summary"), std::string::npos);
    EXPECT_NE(text.find("plee_test_lat_us{quantile=\"0.5\"} 50\n"),
              std::string::npos);
    EXPECT_NE(text.find("plee_test_lat_us_count 100\n"), std::string::npos);
    EXPECT_NE(text.find("plee_test_lat_us_sum 5050\n"), std::string::npos);

    // Line lint (the same check CI runs): every line is a comment or a
    // `plee_`-prefixed sample with a numeric value.
    std::size_t pos = 0;
    while (pos < text.size()) {
        const std::size_t eol = text.find('\n', pos);
        ASSERT_NE(eol, std::string::npos) << "missing trailing newline";
        const std::string line = text.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.rfind("# ", 0) == 0) continue;
        EXPECT_EQ(line.rfind("plee_", 0), 0u) << line;
        const std::size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_FALSE(line.substr(space + 1).empty()) << line;
    }
}

// --- End-to-end contracts through the runner ------------------------------

std::vector<runner::fleet_job> small_fleet(std::size_t n) {
    std::vector<runner::fleet_job> jobs;
    for (std::size_t i = 0; i < n; ++i) {
        const wl::scenario kind =
            wl::all_scenarios()[i % wl::all_scenarios().size()];
        runner::fleet_job job;
        job.id = std::string(wl::to_string(kind)) + "/" + std::to_string(i);
        job.description = job.id;
        job.netlist = wl::generate(wl::scenario_params(kind, 60, 11 + i));
        jobs.push_back(std::move(job));
    }
    return jobs;
}

TEST(ObsEndToEnd, RegistryCountersMatchRowStatsAtOneAndFourThreads) {
    const std::vector<runner::fleet_job> jobs = small_fleet(4);
    for (const unsigned threads : {1u, 4u}) {
        registry::global().reset();
        runner::fleet_options opts;
        opts.num_threads = threads;
        opts.experiment.measure.num_vectors = 15;
        const runner::fleet_result fleet = runner::run_fleet(jobs, opts);
        ASSERT_TRUE(fleet.all_ok());

        std::uint64_t events = 0, hits = 0, misses = 0, wins = 0;
        for (const runner::job_result& r : fleet.results) {
            events += r.row.stats_no_ee.events + r.row.stats_ee.events;
            hits += r.row.stats_no_ee.ee_hits + r.row.stats_ee.ee_hits;
            misses += r.row.stats_no_ee.ee_misses + r.row.stats_ee.ee_misses;
            wins += r.row.stats_no_ee.ee_wins + r.row.stats_ee.ee_wins;
        }
        registry& reg = registry::global();
        EXPECT_EQ(reg.get_counter("sim.events").value(), events) << threads;
        EXPECT_EQ(reg.get_counter("sim.ee.hits").value(), hits) << threads;
        EXPECT_EQ(reg.get_counter("sim.ee.misses").value(), misses) << threads;
        EXPECT_EQ(reg.get_counter("sim.ee.wins").value(), wins) << threads;
        EXPECT_EQ(reg.get_counter("ee.masters_considered").value(),
                  fleet.total_sweeps)
            << threads;
        EXPECT_EQ(reg.get_counter("ee.triggers_added").value(),
                  fleet.total_triggers)
            << threads;
        EXPECT_EQ(reg.get_counter("fleet.jobs_ok").value(), fleet.jobs_ok)
            << threads;

        // The registry-side delay histogram saw every measured vector, and
        // the fleet-side aggregates are its per-row split.
        const hist_snapshot delays =
            reg.get_histogram("sim.vector_delay_ps").snapshot();
        EXPECT_EQ(delays.count, fleet.total_vectors) << threads;
        EXPECT_EQ(fleet.delay_hist_no_ee.count + fleet.delay_hist_ee.count,
                  fleet.total_vectors)
            << threads;
        hist_snapshot merged = fleet.delay_hist_no_ee;
        merged.merge(fleet.delay_hist_ee);
        EXPECT_EQ(merged, delays) << threads;
        EXPECT_EQ(fleet.job_wall_hist_us.count, fleet.results.size());
    }
}

TEST(ObsEndToEnd, BudgetExhaustedJobReportsFlightDumpAndSpanBreakdown) {
    const std::vector<runner::fleet_job> jobs = small_fleet(1);
    runner::fleet_options opts;
    opts.experiment.measure.num_vectors = 10;
    opts.experiment.measure.sim.max_events = 64;  // trips in the first measurement
    const runner::fleet_result fleet = runner::run_fleet(jobs, opts);
    ASSERT_EQ(fleet.results.size(), 1u);
    const runner::job_result& r = fleet.results[0];
    ASSERT_EQ(r.status, runner::job_status::budget_exhausted);

    // The acceptance criterion: a failed job's report carries a non-empty
    // flight-recorder dump plus its (partial but well-formed) span breakdown.
    EXPECT_FALSE(r.flight.empty());
    EXPECT_FALSE(r.spans.empty());
    bool saw_budget = false;
    for (const fr_event& e : r.flight) {
        if (std::string(e.tag) == "job.budget_exhausted") saw_budget = true;
    }
    EXPECT_TRUE(saw_budget);
    for (const span_record& s : r.spans) EXPECT_GE(s.dur_ms, 0.0);

    const std::string dump = runner::to_json(fleet).dump();
    EXPECT_NE(dump.find("\"schema_version\": 4"), std::string::npos);
    EXPECT_NE(dump.find("\"flight_recorder\""), std::string::npos);
    EXPECT_NE(dump.find("\"spans\""), std::string::npos);
    EXPECT_NE(dump.find("\"job.budget_exhausted\""), std::string::npos);
}

TEST(ObsEndToEnd, TelemetryOffRunsCleanWithEmptyInstrumentation) {
    const std::vector<runner::fleet_job> jobs = small_fleet(2);
    runner::fleet_options opts;
    opts.experiment.measure.num_vectors = 15;
    opts.telemetry = false;
    const runner::fleet_result off = runner::run_fleet(jobs, opts);
    ASSERT_TRUE(off.all_ok());
    for (const runner::job_result& r : off.results) {
        EXPECT_TRUE(r.spans.empty());
        EXPECT_TRUE(r.flight.empty());
        EXPECT_TRUE(r.row.delay_hist_no_ee.empty());
    }
    EXPECT_TRUE(off.delay_hist_no_ee.empty());
    EXPECT_TRUE(off.delay_hist_ee.empty());
    EXPECT_TRUE(off.job_wall_hist_us.empty());

    // The measured results themselves are bit-identical either way:
    // telemetry observes the pipeline, it must not steer it.
    opts.telemetry = true;
    const runner::fleet_result on = runner::run_fleet(jobs, opts);
    ASSERT_TRUE(on.all_ok());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(off.results[i].row.delay_no_ee, on.results[i].row.delay_no_ee);
        EXPECT_EQ(off.results[i].row.delay_ee, on.results[i].row.delay_ee);
        EXPECT_EQ(off.results[i].row.stats_ee.events,
                  on.results[i].row.stats_ee.events);
    }
}

}  // namespace
}  // namespace plee::obs
