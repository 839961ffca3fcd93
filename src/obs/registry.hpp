// registry.hpp — the process-wide metrics registry.
//
// One `registry::global()` instance owns every named counter, gauge and
// histogram in the process.  Lookup (`get_counter` & co.) takes a mutex and
// a map walk, so callers cache the returned reference once, in a
// function-local `static`, and flush into it once per unit of work: the
// writers add a measurement's, an EE pass's or a fleet's totals in one call
// each, never per event.
//
//     static obs::counter& triggers =
//         obs::registry::global().get_counter("ee.triggers_added");
//     triggers.add(stats.triggers_added);
//
// References returned by the getters are stable for the life of the process:
// reset() zeroes values but never destroys or reallocates a metric, so cached
// `static` references in instrumented code stay valid across test-suite
// resets.  Metrics are stored in std::map, so snapshots and every sink emit
// in deterministic (lexicographic) name order.
//
// Naming convention (enforced by review, not code — see src/obs/README.md):
// dotted lowercase path `subsystem.noun[.verb]`, unit suffix on anything
// dimensioned (`_ms`, `_us`, `_ps`).  Counters count events; gauges hold a
// last-written level; histograms hold distributions.
//
// Once looked up, a metric is safe from any thread: a counter or gauge is
// one relaxed atomic, and a histogram is one hist_snapshot behind its own
// mutex (histogram.hpp).  A snapshot taken while writers run may miss their
// latest flushes; at quiescence every value is exact.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/histogram.hpp"

namespace plee::obs {

/// Monotonic event count.
class counter {
public:
    counter() = default;
    counter(const counter&) = delete;
    counter& operator=(const counter&) = delete;

    void add(std::uint64_t n = 1) {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// A last-written level (queue depth, in-flight jobs).
class gauge {
public:
    gauge() = default;
    gauge(const gauge&) = delete;
    gauge& operator=(const gauge&) = delete;

    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
    void reset() { set(0); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// A point-in-time copy of every registered metric, name-sorted.
struct metrics_snapshot {
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::int64_t>> gauges;
    std::vector<std::pair<std::string, hist_snapshot>> histograms;
};

class registry {
public:
    static registry& global();

    /// Create-on-first-use; the reference is stable forever after.
    counter& get_counter(const std::string& name);
    gauge& get_gauge(const std::string& name);
    histogram& get_histogram(const std::string& name);

    metrics_snapshot snapshot() const;

    /// Zeroes every value but keeps every registration (and thus every
    /// outstanding reference) alive.  Test isolation, not teardown.
    void reset();

private:
    registry() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<counter>> counters_;
    std::map<std::string, std::unique_ptr<gauge>> gauges_;
    std::map<std::string, std::unique_ptr<histogram>> histograms_;
};

}  // namespace plee::obs
