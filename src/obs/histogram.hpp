// histogram.hpp — log-bucketed latency histograms with exact-rank readout.
//
// The paper's headline claim is distributional: Early Evaluation shifts the
// *completion-time distribution* of a self-timed pipeline, not just its mean.
// Reporting a mean therefore throws away exactly the evidence the experiment
// exists to produce.  This module is the distribution-capable accumulator the
// telemetry subsystem (and BENCH_*.json) records into.
//
// Bucketing is HDR-style: values below k_sub_count (128) get one bucket each
// (exact); above that, every power-of-two range [2^k, 2^(k+1)) is divided
// into k_sub_count equal sub-buckets, so the relative width of any bucket is
// at most 1/k_sub_count (< 0.8%).  Values are unsigned integers — callers
// pick the unit (the pipeline records picoseconds for ns-scale delays and
// microseconds for ms-scale wall times, keeping quantization far below the
// bucket resolution).
//
// Two representations share the bucket math:
//
//  * hist_snapshot — the value form: sparse sorted (bucket, count) pairs.
//    Cheap to carry in results, exactly mergeable (merge is associative and
//    commutative, bucket-for-bucket — asserted by tests/test_obs.cpp), and
//    the unit of JSON serialization.
//  * histogram — the resident, registry-owned form: one hist_snapshot
//    behind a mutex, safe from any thread.  Its writers flush once per
//    measurement or fleet (a local snapshot merged in, or one record), so
//    one lock per flush is the whole synchronization cost.
//
// Readout is exact-rank over the recorded buckets: value_at_percentile(p)
// walks the cumulative counts to rank ceil(p/100 * count) and returns that
// bucket's upper bound (clamped to the exactly-tracked max), so p50/p90/p99
// are exact for values in the one-per-bucket region and within 1/128
// relative error beyond it; min, max, count and sum are always exact.

#pragma once

#include <bit>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace plee::obs {

/// Sub-buckets per power-of-two range (and the bound of the exact region).
inline constexpr int k_hist_sub_bits = 7;
inline constexpr std::uint64_t k_hist_sub_count = std::uint64_t{1}
                                                  << k_hist_sub_bits;
/// Total buckets covering the whole uint64 range: the exact region plus one
/// k_hist_sub_count strip per shift in [0, 64 - k_hist_sub_bits - 1].
inline constexpr std::size_t k_hist_num_buckets =
    static_cast<std::size_t>(k_hist_sub_count) * (64 - k_hist_sub_bits + 1);

/// Bucket index of a value (see header comment for the layout).
inline std::uint32_t hist_bucket_index(std::uint64_t value) {
    if (value < k_hist_sub_count) return static_cast<std::uint32_t>(value);
    const int top = 63 - std::countl_zero(value);
    const int shift = top - k_hist_sub_bits;
    const std::uint64_t sub = (value >> shift) - k_hist_sub_count;
    return static_cast<std::uint32_t>(
        k_hist_sub_count + static_cast<std::uint64_t>(shift) * k_hist_sub_count +
        sub);
}

/// Largest value mapping to bucket `index` (inverse of hist_bucket_index).
inline std::uint64_t hist_bucket_upper(std::uint32_t index) {
    if (index < k_hist_sub_count) return index;
    const std::uint32_t off = index - static_cast<std::uint32_t>(k_hist_sub_count);
    const std::uint32_t shift = off >> k_hist_sub_bits;
    const std::uint64_t sub = off & (k_hist_sub_count - 1);
    return ((k_hist_sub_count + sub + 1) << shift) - 1;
}

/// The value form: a mergeable, serializable histogram snapshot.
struct hist_snapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;  ///< exact; 0 when count == 0
    std::uint64_t max = 0;  ///< exact; 0 when count == 0
    /// Occupied buckets only, sorted by bucket index.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> buckets;

    void record(std::uint64_t value);

    /// Adds `other` in: exact bucket-for-bucket accumulation (associative
    /// and commutative, so fleet aggregates are order-independent).
    void merge(const hist_snapshot& other);

    bool empty() const { return count == 0; }
    double mean() const {
        return count == 0 ? 0.0
                          : static_cast<double>(sum) / static_cast<double>(count);
    }

    /// Value at rank ceil(p/100 * count) (1-based over the sorted recorded
    /// values): the bucket upper bound clamped to [min, max].  p <= 0 reads
    /// min, p >= 100 reads max; 0 when empty.
    std::uint64_t value_at_percentile(double p) const;

    bool operator==(const hist_snapshot&) const = default;
};

/// The resident form: a hist_snapshot behind a mutex, for the registry.
/// Each call takes the lock and applies the value form's operation.
class histogram {
public:
    histogram() = default;
    histogram(const histogram&) = delete;
    histogram& operator=(const histogram&) = delete;

    void record(std::uint64_t value);

    /// Folds a snapshot in (the bulk path measure uses: build a local
    /// snapshot on one thread, merge once).
    void merge(const hist_snapshot& snapshot);

    /// An exact copy: writers hold the same lock, so it never sees half a
    /// flush.
    hist_snapshot snapshot() const;

    /// Empties the histogram (registry reset between test runs).
    void reset();

private:
    mutable std::mutex mu_;
    hist_snapshot value_;
};

}  // namespace plee::obs
