// Tests for the table renderer, the JSON serializer behind the BENCH_*.json
// artifacts, and the end-to-end Table 3 experiment row.

#include "report/experiment.hpp"
#include "report/json.hpp"
#include "report/table.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "rt/errors.hpp"
#include "synth/rtl.hpp"

namespace plee::report {
namespace {

TEST(TextTable, RendersAlignedColumns) {
    text_table t({"name", "value"});
    t.add_row({"alpha", "1"});
    t.add_row({"b", "123456"});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("| name "), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("123456"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("|---"), std::string::npos);
    EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TextTable, CsvOutput) {
    text_table t({"a", "b"});
    t.add_row({"1", "2"});
    EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TextTable, RejectsRaggedRows) {
    text_table t({"a", "b"});
    EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Formatting, FixedAndPercent) {
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmt_pct(36.4), "+36%");
    EXPECT_EQ(fmt_pct(-2.3), "-2%");
}

TEST(Experiment, AdderRowHasPaperShape) {
    // An 8-bit registered adder: EE must win, area must grow, and the row's
    // derived columns must be mutually consistent.
    syn::module_builder m("rowtest");
    const syn::bus a = m.input_bus("a", 8);
    const syn::bus b = m.input_bus("b", 8);
    const syn::bus acc = m.new_register("acc", 8, 0);
    m.connect_register(acc, m.add(acc, m.add(a, b).sum).sum);
    m.output_bus("acc", acc);
    m.output("cout", m.add(a, b).carry);
    const nl::netlist n = m.build();

    experiment_options opts;
    opts.measure.num_vectors = 60;
    const experiment_row row = run_ee_experiment("registered adder", n, opts);

    EXPECT_GT(row.pl_gates, 0u);
    EXPECT_GT(row.ee_gates, 0u);
    EXPECT_GT(row.delay_no_ee, 0.0);
    EXPECT_GT(row.delay_ee, 0.0);
    EXPECT_NEAR(row.delay_diff, row.delay_no_ee - row.delay_ee, 1e-9);
    EXPECT_NEAR(row.area_increase_pct,
                100.0 * static_cast<double>(row.ee_gates) /
                    static_cast<double>(row.pl_gates),
                1e-9);
    EXPECT_NEAR(row.delay_decrease_pct, 100.0 * row.delay_diff / row.delay_no_ee,
                1e-9);
    // The headline claim on an arithmetic circuit: EE reduces delay.
    EXPECT_GT(row.delay_decrease_pct, 0.0);
    EXPECT_EQ(row.ee_detail.triggers_added, row.ee_gates);
}

TEST(Experiment, ThresholdSuppressesEe) {
    syn::module_builder m("supp");
    const syn::bus a = m.input_bus("a", 4);
    const syn::bus b = m.input_bus("b", 4);
    m.output_bus("s", m.add(a, b).sum);
    const nl::netlist n = m.build();

    experiment_options opts;
    opts.measure.num_vectors = 10;
    opts.ee.search.cost_threshold = 1e12;
    const experiment_row row = run_ee_experiment("suppressed", n, opts);
    EXPECT_EQ(row.ee_gates, 0u);
    EXPECT_EQ(row.area_increase_pct, 0.0);
}

/// A 4-bit registered accumulator: small, and EE finds triggers on it.
nl::netlist accumulator() {
    syn::module_builder m("acc");
    const syn::bus a = m.input_bus("a", 4);
    const syn::bus acc = m.new_register("acc", 4, 0);
    m.connect_register(acc, m.add(acc, a).sum);
    m.output_bus("acc", acc);
    return m.build();
}

TEST(Experiment, TraceNamesEachStageOnceInPipelineOrder) {
    obs::trace trace;
    experiment_options opts;
    opts.measure.num_vectors = 10;
    const experiment_row row =
        run_ee_experiment("stages", accumulator(), opts,
                          {.label = "stages", .trace = &trace});
    ASSERT_GT(row.ee_gates, 0u);

    // One map, one EE pass, and one measurement for both arms: one golden
    // run over the stimulus, one compile and one run.
    const std::vector<obs::span_record>& spans = trace.spans();
    std::vector<std::string> stages;
    std::vector<std::string> children;
    for (const obs::span_record& s : spans) {
        if (s.parent < 0) {
            stages.push_back(s.name);
        } else {
            children.push_back(spans[static_cast<std::size_t>(s.parent)].name +
                               "/" + s.name);
        }
    }
    EXPECT_EQ(stages, (std::vector<std::string>{"map_to_pl", "ee.pass", "measure"}));
    EXPECT_EQ(children,
              (std::vector<std::string>{"ee.pass/ee.search", "measure/sim.golden",
                                        "measure/sim.compile", "measure/sim.run"}));
}

TEST(Experiment, CancelledTokenStopsAtTheMapGate) {
    cancel_token token;
    token.cancel();
    obs::trace trace;
    try {
        run_ee_experiment("cancelled", accumulator(), {},
                          {.label = "job7", .cancel = &token, .trace = &trace});
        FAIL() << "a cancelled run completed";
    } catch (const job_timeout& e) {
        EXPECT_EQ(e.progress(), 0u);
        EXPECT_NE(std::string(e.what()).find("pipeline.map[job7]"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_TRUE(trace.spans().empty());
}

TEST(Experiment, MeasureTelemetryOffSkipsHistogramsAndTheRegistryFlush) {
    obs::registry& reg = obs::registry::global();
    obs::counter& vectors = reg.get_counter("sim.vectors");
    obs::counter& masters = reg.get_counter("ee.masters_considered");
    obs::counter& triggers = reg.get_counter("ee.triggers_added");
    const std::uint64_t vectors_before = vectors.value();
    const std::uint64_t masters_before = masters.value();
    const std::uint64_t triggers_before = triggers.value();
    experiment_options opts;
    opts.measure.num_vectors = 10;
    const experiment_row row =
        run_ee_experiment("quiet", accumulator(), opts,
                          {.label = "quiet", .telemetry = false});
    EXPECT_EQ(row.vectors_measured, 20u);
    EXPECT_GT(row.ee_detail.triggers_added, 0u);
    EXPECT_TRUE(row.delay_hist_no_ee.empty());
    EXPECT_TRUE(row.delay_hist_ee.empty());
    EXPECT_EQ(vectors.value(), vectors_before);
    EXPECT_EQ(masters.value(), masters_before);
    EXPECT_EQ(triggers.value(), triggers_before);
}

TEST(Json, SerializesNestedValuesDeterministically) {
    json root = json::object();
    root.set("name", json::str("trigger"));
    root.set("speedup", json::number(5.25));
    root.set("count", json::number(14));
    root.set("ok", json::boolean(true));
    json arr = json::array();
    arr.push(json::number(1));
    arr.push(json::str("two\n\"quoted\""));
    arr.push(json::number(2));
    root.set("items", std::move(arr));
    root.set("empty_obj", json::object());
    root.set("empty_arr", json::array());

    const std::string s = root.dump();
    EXPECT_EQ(s,
              "{\n"
              "  \"name\": \"trigger\",\n"
              "  \"speedup\": 5.25,\n"
              "  \"count\": 14,\n"
              "  \"ok\": true,\n"
              "  \"items\": [\n"
              "    1,\n"
              "    \"two\\n\\\"quoted\\\"\",\n"
              "    2\n"
              "  ],\n"
              "  \"empty_obj\": {},\n"
              "  \"empty_arr\": []\n"
              "}\n");
}

TEST(Json, RejectsKindMisuse) {
    json arr = json::array();
    EXPECT_THROW(arr.set("k", json::number(1)), std::logic_error);
    json obj = json::object();
    EXPECT_THROW(obj.push(json::number(1)), std::logic_error);
}

TEST(Json, ExperimentRowRoundTripsAllColumns) {
    experiment_row row;
    row.description = "demo";
    row.pl_gates = 10;
    row.ee_gates = 4;
    row.delay_no_ee = 12.5;
    row.delay_ee = 10.0;
    row.delay_diff = 2.5;
    row.area_increase_pct = 40.0;
    row.delay_decrease_pct = 20.0;
    const std::string s = to_json(row).dump();
    EXPECT_NE(s.find("\"description\": \"demo\""), std::string::npos);
    EXPECT_NE(s.find("\"pl_gates\": 10"), std::string::npos);
    EXPECT_NE(s.find("\"ee_gates\": 4"), std::string::npos);
    EXPECT_NE(s.find("\"delay_no_ee_ns\": 12.5"), std::string::npos);
    EXPECT_NE(s.find("\"area_increase_pct\": 40"), std::string::npos);
}

}  // namespace
}  // namespace plee::report
