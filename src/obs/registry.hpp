// registry.hpp — the process-wide metrics registry.
//
// One `registry::global()` instance owns every named counter, gauge and
// histogram in the process.  Lookup (`get_counter` & co.) takes a mutex and
// a map walk, so callers cache the returned reference once — typically in a
// function-local `static` — and the hot path is then a single relaxed
// atomic add with no lock and no hash:
//
//     static obs::counter& triggers =
//         obs::registry::global().get_counter("ee.triggers_added");
//     triggers.add();
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
// Counters are sharded across 16 cacheline-aligned atomic slots with a
// per-thread home slot, so a fleet of workers bumping the same counter does
// not ping-pong one cache line; value() sums the slots (a momentarily-stale
// read while writers run, exact at quiescence).

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

inline constexpr std::size_t k_counter_shards = 16;

/// Monotonic event count, sharded to keep concurrent add() cheap.
class counter {
public:
    counter() = default;
    counter(const counter&) = delete;
    counter& operator=(const counter&) = delete;

    void add(std::uint64_t n = 1) {
        shards_[home_shard()].value.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const {
        std::uint64_t total = 0;
        for (const slot& s : shards_) {
            total += s.value.load(std::memory_order_relaxed);
        }
        return total;
    }

    void reset() {
        for (slot& s : shards_) s.value.store(0, std::memory_order_relaxed);
    }

private:
    struct alignas(64) slot {
        std::atomic<std::uint64_t> value{0};
    };

    /// Round-robin thread→slot assignment; cheaper and more uniform than
    /// hashing thread ids.
    static std::size_t home_shard();

    slot shards_[k_counter_shards];
};

/// A last-written level (queue depth, in-flight jobs).
class gauge {
public:
    gauge() = default;
    gauge(const gauge&) = delete;
    gauge& operator=(const gauge&) = delete;

    void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
    void add(std::int64_t d = 1) {
        value_.fetch_add(d, std::memory_order_relaxed);
    }
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
