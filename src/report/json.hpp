// json.hpp — a minimal JSON value builder and writer.
//
// The perf trajectory of this repository is tracked across PRs through
// machine-readable bench artifacts (BENCH_trigger.json, BENCH_itc99.json);
// this module is the single serializer behind them.  It builds a value tree
// (object / array / string / number / bool / null) with insertion-ordered
// object keys — deterministic output for diffing — and dumps it with
// standard escaping.  The benches and tools write the dumped text through
// atomic_write_text (rt/atomic_write.hpp), like every other artifact.
// Deliberately write-only: nothing in this project needs a JSON parser.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace plee::report {

/// Version stamp the BENCH_*.json writers emit as "schema_version" (the
/// fleet artifact carries runner::k_fleet_schema_version instead).
/// Artifacts without the field predate versioning — read them as version 0.
/// Bump on any breaking shape change; see docs/schemas.md.
inline constexpr int k_bench_schema_version = 4;

class json {
public:
    /// Defaults to null.
    json() = default;

    static json object();
    static json array();
    static json str(std::string value);
    static json number(double value);
    static json number(std::int64_t value);
    static json number(int value) { return number(static_cast<std::int64_t>(value)); }
    static json number(std::size_t value) {
        return number(static_cast<std::int64_t>(value));
    }
    static json boolean(bool value);

    /// Object insert (insertion order preserved); *this must be an object.
    json& set(std::string key, json value);
    /// Array append; *this must be an array.
    json& push(json value);

    /// Serializes with 2-space indentation and a trailing newline at the top
    /// level — the shape git diffs handle best.
    std::string dump() const;

    /// Serializes on one line with no whitespace and no trailing newline —
    /// the shape JSONL telemetry streams need (one record per line).
    std::string dump_compact() const;

private:
    enum class kind : std::uint8_t { null, object, array, string, real, integer, boolean };

    void dump_to(std::string& out, int indent) const;
    void dump_compact_to(std::string& out) const;

    kind kind_ = kind::null;
    std::string string_;
    double real_ = 0.0;
    std::int64_t integer_ = 0;
    bool bool_ = false;
    std::vector<std::pair<std::string, json>> members_;  ///< object
    std::vector<json> elements_;                         ///< array
};

}  // namespace plee::report
