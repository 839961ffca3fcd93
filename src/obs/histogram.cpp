#include "obs/histogram.hpp"

#include <algorithm>
#include <cmath>

namespace plee::obs {

namespace {

bool by_bucket(const std::pair<std::uint32_t, std::uint64_t>& entry,
               std::uint32_t index) {
    return entry.first < index;
}

}  // namespace

void hist_snapshot::record(std::uint64_t value) {
    const std::uint32_t idx = hist_bucket_index(value);
    const auto it =
        std::lower_bound(buckets.begin(), buckets.end(), idx, by_bucket);
    if (it != buckets.end() && it->first == idx) {
        ++it->second;
    } else {
        buckets.insert(it, {idx, 1});
    }
    if (count == 0 || value < min) min = value;
    if (value > max) max = value;
    ++count;
    sum += value;
}

void hist_snapshot::merge(const hist_snapshot& other) {
    if (other.count == 0) return;
    // In place: counts of buckets both hold are added where they lie, and
    // only the buckets `other` alone holds are merged in, from the back, so
    // a histogram whose buckets have settled takes a merge without moving or
    // allocating anything.
    std::size_t fresh = 0;
    auto it = buckets.begin();
    for (const auto& entry : other.buckets) {
        it = std::lower_bound(it, buckets.end(), entry.first, by_bucket);
        if (it != buckets.end() && it->first == entry.first) {
            it->second += entry.second;
        } else {
            ++fresh;
        }
    }
    std::size_t a = buckets.size();
    std::size_t b = other.buckets.size();
    buckets.resize(a + fresh);
    for (std::size_t out = buckets.size(); out > a;) {
        const auto& theirs = other.buckets[b - 1];
        if (a > 0 && buckets[a - 1].first >= theirs.first) {
            if (buckets[a - 1].first == theirs.first) --b;  // added above
            buckets[--out] = buckets[--a];
        } else {
            buckets[--out] = theirs;
            --b;
        }
    }
    min = count == 0 ? other.min : std::min(min, other.min);
    max = std::max(max, other.max);
    count += other.count;
    sum += other.sum;
}

std::uint64_t hist_snapshot::value_at_percentile(double p) const {
    if (count == 0) return 0;
    if (p <= 0.0) return min;
    if (p >= 100.0) return max;
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    std::uint64_t seen = 0;
    for (const auto& [idx, n] : buckets) {
        seen += n;
        if (seen >= rank) {
            return std::clamp(hist_bucket_upper(idx), min, max);
        }
    }
    return max;  // unreachable for a consistent snapshot
}

void histogram::record(std::uint64_t value) {
    const std::lock_guard<std::mutex> lock(mu_);
    value_.record(value);
}

void histogram::merge(const hist_snapshot& snapshot) {
    const std::lock_guard<std::mutex> lock(mu_);
    value_.merge(snapshot);
}

hist_snapshot histogram::snapshot() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return value_;
}

void histogram::reset() {
    const std::lock_guard<std::mutex> lock(mu_);
    value_ = {};
}

}  // namespace plee::obs
