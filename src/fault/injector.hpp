// injector.hpp — deterministic fault-injection harness.
//
// Every recovery path in the fleet runner (typed failure statuses, retry
// with backoff, graceful aggregation around failed jobs) exists to handle
// events that never occur in a healthy deterministic pipeline.  Rather than
// trusting that code, the pipeline carries named injection points — inert
// single-atomic-load checks compiled in always — that a test or the
// `plee_fleet --inject` flag can arm to throw or delay at configured
// probabilities:
//
//   synth.map     entry of the PL mapping stage (once per pipeline run)
//   ee.search     every trigger-search work-queue chunk
//   sim.fire      the simulator event loops, once per cancel-check interval
//
// Decisions are *stateless*: whether a check fires depends only on
// (seed, point, scope, site) where `scope` is a thread-local context hash
// (the runner scopes each attempt as "jobid#attempt") and `site` is the
// caller's stable position (event count, chunk index).  No draw order, no
// shared RNG state — so which jobs fail is bit-identical across thread
// counts and interleavings, which is what lets tests assert exact fleet
// outcomes under injection.
//
// Spec grammar (the --inject argument; see src/runner/README.md):
//
//   SPEC  := entry (';' entry)*
//   entry := 'seed=' N
//          | POINT '=' PROB                       (throw, transient)
//          | POINT '=' PROB ':transient'          (throw, transient)
//          | POINT '=' PROB ':permanent'          (throw, permanent)
//          | POINT '=' PROB ':delay=' MS          (sleep MS milliseconds)
//
// e.g.  --inject 'seed=42;ee.search=0.5;sim.fire=1:delay=5'

#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "rt/errors.hpp"

namespace plee::fault {

/// The exception an armed throwing point raises; classification follows the
/// point's configuration.
class injected_fault : public plee_error {
public:
    injected_fault(const std::string& point, std::uint64_t site,
                   failure_class cls)
        : plee_error("injected fault at " + point + " (site " +
                         std::to_string(site) + ", " + to_string(cls) + ")",
                     cls),
          point_(point) {}

    const std::string& point() const { return point_; }

private:
    std::string point_;
};

struct point_config {
    double probability = 0.0;                     ///< [0, 1]
    failure_class cls = failure_class::transient; ///< class of the throw
    double delay_ms = 0.0;  ///< > 0: sleep instead of throwing
};

class injector {
public:
    /// The process-wide instance every injection point consults.
    static injector& instance();

    /// Known point names; configure() rejects anything else (typo safety).
    static bool known_point(const std::string& point);

    /// Parses the spec grammar above and arms the instance.  Throws
    /// std::invalid_argument on malformed specs (every number must parse
    /// whole) or unknown points.
    void configure(const std::string& spec);

    /// Programmatic single-point arming (tests).
    void arm(const std::string& point, point_config config);
    void set_seed(std::uint64_t seed) { seed_ = seed; }

    /// Disarms everything; checks return to the inert fast path.
    void clear();

    bool enabled() const { return enabled_.load(std::memory_order_acquire); }

    /// The injection point: inert = one atomic load.  `site` is any value
    /// stable across re-runs at this call site (event count, chunk index).
    void check(const char* point, std::uint64_t site) {
        if (!enabled()) return;
        check_slow(point, site);
    }

    /// Scopes checks on this thread to a job context (hash of "id#attempt");
    /// nested scopes restore the outer one on destruction.
    class scope {
    public:
        explicit scope(std::uint64_t context);
        ~scope();
        scope(const scope&) = delete;
        scope& operator=(const scope&) = delete;

    private:
        std::uint64_t saved_;
    };

    /// FNV-1a — the stable string hash used for points and scope contexts.
    static std::uint64_t hash(const std::string& s);

private:
    injector() = default;
    void check_slow(const char* point, std::uint64_t site);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mu_;  ///< guards points_/seed_ against concurrent config
    std::unordered_map<std::string, point_config> points_;
    std::uint64_t seed_ = 0;
};

}  // namespace plee::fault
