#include "fault/injector.hpp"

#include <array>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "bool/splitmix64.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "rt/parse.hpp"

namespace plee::fault {

namespace {

constexpr std::array<const char*, 3> k_points = {"synth.map", "ee.search",
                                                 "sim.fire"};

thread_local std::uint64_t t_scope = 0;

/// The stateless fire decision shared by throwing and delaying fates: a
/// pure hash of (seed, point, scope, site) mapped to [0, 1).
double stateless_draw(std::uint64_t seed, const char* point,
                      std::uint64_t site) {
    const std::uint64_t u = bf::splitmix64(
        seed ^ bf::splitmix64(injector::hash(point) ^ t_scope) ^
        bf::splitmix64(site));
    return static_cast<double>(u >> 11) * (1.0 / 9007199254740992.0);  // 2^-53
}

}  // namespace

injector& injector::instance() {
    static injector inst;
    return inst;
}

bool injector::known_point(const std::string& point) {
    for (const char* p : k_points) {
        if (point == p) return true;
    }
    return false;
}

std::uint64_t injector::hash(const std::string& s) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

injector::scope::scope(std::uint64_t context) : saved_(t_scope) {
    t_scope = context;
}

injector::scope::~scope() { t_scope = saved_; }

void injector::arm(const std::string& point, point_config config) {
    if (!known_point(point)) {
        throw std::invalid_argument("fault::injector: unknown point '" + point +
                                    "'");
    }
    std::lock_guard<std::mutex> lock(mu_);
    points_[point] = config;
    enabled_.store(true, std::memory_order_release);
}

void injector::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    points_.clear();
    seed_ = 0;
    enabled_.store(false, std::memory_order_release);
}

void injector::configure(const std::string& spec) {
    // Parse into a staging map first so a malformed tail arms nothing.
    std::unordered_map<std::string, point_config> staged;
    std::uint64_t seed = 0;
    std::size_t pos = 0;
    while (pos <= spec.size()) {
        const std::size_t semi = spec.find(';', pos);
        const std::size_t end = semi == std::string::npos ? spec.size() : semi;
        if (end > pos) {
            const std::string entry = spec.substr(pos, end - pos);
            const std::size_t eq = entry.find('=');
            if (eq == std::string::npos) {
                throw std::invalid_argument(
                    "fault::injector: entry missing '=': '" + entry + "'");
            }
            const std::string key = entry.substr(0, eq);
            const std::string value = entry.substr(eq + 1);
            if (key == "seed") {
                seed = parse_unsigned<std::uint64_t>("fault::injector: seed", value);
            } else {
                if (!known_point(key)) {
                    throw std::invalid_argument(
                        "fault::injector: unknown point '" + key + "'");
                }
                point_config config;
                const std::size_t colon = value.find(':');
                const std::string prob =
                    colon == std::string::npos ? value : value.substr(0, colon);
                config.probability =
                    parse_non_negative("fault::injector: " + key, prob);
                if (config.probability > 1.0) {
                    throw std::invalid_argument(
                        "fault::injector: bad probability '" + prob + "'");
                }
                if (colon != std::string::npos) {
                    const std::string kind = value.substr(colon + 1);
                    if (kind == "transient") {
                        config.cls = failure_class::transient;
                    } else if (kind == "permanent") {
                        config.cls = failure_class::permanent;
                    } else if (kind.rfind("delay=", 0) == 0) {
                        config.delay_ms = parse_non_negative(
                            "fault::injector: " + key + " delay", kind.substr(6));
                        if (config.delay_ms <= 0.0) {
                            throw std::invalid_argument(
                                "fault::injector: bad delay '" + kind + "'");
                        }
                    } else {
                        throw std::invalid_argument(
                            "fault::injector: unknown action '" + kind + "'");
                    }
                }
                staged[key] = config;
            }
        }
        if (semi == std::string::npos) break;
        pos = semi + 1;
    }

    std::lock_guard<std::mutex> lock(mu_);
    points_ = std::move(staged);
    seed_ = seed;
    enabled_.store(!points_.empty(), std::memory_order_release);
}

void injector::check_slow(const char* point, std::uint64_t site) {
    point_config config;
    std::uint64_t seed;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = points_.find(point);
        if (it == points_.end()) return;
        config = it->second;
        seed = seed_;
    }
    if (config.probability <= 0.0) return;
    // Stateless decision: a pure hash of (seed, point, scope, site) — no RNG
    // stream, so outcomes are independent of thread interleaving.
    const double draw = stateless_draw(seed, point, site);
    if (draw >= config.probability) return;
    // The fault fires: leave a trail before disturbing anything, so the
    // job's failure report shows the injection that triggered the cascade.
    static obs::counter& injected =
        obs::registry::global().get_counter("fault.injected");
    injected.add();
    if (obs::flight_recorder* recorder = obs::current_recorder()) {
        recorder->record_note("fault.injected", point, site);
    }
    if (config.delay_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(config.delay_ms));
        return;
    }
    throw injected_fault(point, site, config.cls);
}

}  // namespace plee::fault
