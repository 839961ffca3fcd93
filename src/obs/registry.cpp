#include "obs/registry.hpp"

namespace plee::obs {

registry& registry::global() {
    static registry instance;
    return instance;
}

counter& registry::get_counter(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<counter>& slot = counters_[name];
    if (!slot) slot = std::make_unique<counter>();
    return *slot;
}

gauge& registry::get_gauge(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<gauge>& slot = gauges_[name];
    if (!slot) slot = std::make_unique<gauge>();
    return *slot;
}

histogram& registry::get_histogram(const std::string& name) {
    const std::lock_guard<std::mutex> lock(mu_);
    std::unique_ptr<histogram>& slot = histograms_[name];
    if (!slot) slot = std::make_unique<histogram>();
    return *slot;
}

metrics_snapshot registry::snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    metrics_snapshot out;
    out.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_) {
        out.counters.emplace_back(name, c->value());
    }
    out.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) {
        out.gauges.emplace_back(name, g->value());
    }
    out.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) {
        out.histograms.emplace_back(name, h->snapshot());
    }
    return out;
}

void registry::reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
}

}  // namespace plee::obs
