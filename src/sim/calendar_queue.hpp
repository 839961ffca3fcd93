// calendar_queue.hpp — a bucketed timing-wheel event queue for pl_simulator's
// lane engine (run_lanes).
//
// Only the lane engine uses it: the scalar path runs the queue-free
// dataflow engine by default and std::push_heap over `deposit` as its
// time-ordered reference (see pl_sim.hpp).  The lane engine keeps a queue
// while its fork policy checkpoints and restores pending deposits.
//
// The lane engine's events are token deposits, dense in time and popped in
// strict (time, seq) order.  A binary heap pays O(log n) comparisons and
// 24-byte record shuffles per operation; a calendar queue exploits the
// structure of simulated time instead: event times are bucketed by a
// quantized tick (bucket width = the smallest positive delay-model
// component), each tick owns one bucket of a power-of-two ring, and the
// queue jumps from occupied tick to occupied tick through a one-bit-per-
// bucket occupancy bitmap (64 empty ticks skipped per word scan).
//
// Storage exploits marked-graph safety: a safe PL netlist never has two
// deposits in flight on the same edge (a producer cannot refire before the
// consumer's acknowledge, and a double deposit is the safety violation the
// simulator exists to detect), so the wheel is an intrusive linked list over
// an edge-indexed node pool — push writes slot_[edge] and appends the edge
// id to its bucket's chain, no per-bucket containers and no allocation on
// the hot path.  The rare second in-flight deposit on one edge (an unsafe
// hand-built netlist, about to throw anyway) falls back to the overflow
// heap, which preserves exact pop order.
//
// Ordering contract: events are popped in exactly increasing (time, seq) —
// the same total order the heap engine's comparator induces.  Bucketing
// never reorders across buckets because tick(t) is monotone in t, and a
// bucket is sorted by (time, seq) when its tick becomes current.  Chain
// order within a bucket is already seq order and event times arrive nearly
// sorted, so the drain sort is an adaptive insertion sort (linear on the
// common nearly-sorted case) with a std::sort fallback for large buckets.
// Late arrivals into the in-drain run are inserted at their sorted
// position.
//
// Capacity management: the ring covers the window [cur_tick, cur_tick + N).
// N is sized from the delay model (every deposit lands at most one gate
// delay past the current event, a couple dozen ticks), so in-window is the
// overwhelmingly common case; deposits beyond the window go to a small
// overflow min-heap and migrate into the ring when the drain frontier
// reaches them.  The pool needs no growth: in-flight deposits are bounded
// by the edge count.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "plogic/pl_netlist.hpp"

namespace plee::sim {

/// One scheduled token deposit (the heap engine's record, the seed layout).
struct deposit {
    double time = 0.0;
    std::uint64_t seq = 0;
    pl::edge_id edge = pl::k_invalid_edge;
    bool value = false;
    /// Heap-engine comparator: std::greater<> over (time, seq).
    bool operator>(const deposit& o) const {
        return time != o.time ? time > o.time : seq > o.seq;
    }
};

/// The calendar queue's 16-byte event: (seq, edge, value) packed into one
/// key as [seq:39][edge:24][value:1].  seq owns the top bits and is unique,
/// so ordering by (time, key) is exactly ordering by (time, seq) — the same
/// total order the heap comparator induces — while halving every copy, sort
/// move and cache line the queue touches.  The layout caps the lane engine
/// at 2^24 edges and 2^39 events per run; run_lanes falls back to 64 scalar
/// runs (identical results) beyond that.
struct cal_event {
    double time = 0.0;
    std::uint64_t key = 0;

    static constexpr std::uint32_t k_max_edges = 1u << 24;
    static constexpr std::uint64_t k_max_seq = std::uint64_t{1} << 39;

    static std::uint64_t pack(std::uint64_t seq, pl::edge_id edge, bool value) {
        return (seq << 25) | (std::uint64_t{edge} << 1) |
               static_cast<std::uint64_t>(value);
    }
    pl::edge_id edge() const {
        return static_cast<pl::edge_id>((key >> 1) & (k_max_edges - 1));
    }
    bool value() const { return (key & 1) != 0; }

    bool operator<(const cal_event& o) const {
        return time != o.time ? time < o.time : key < o.key;
    }
    bool operator>(const cal_event& o) const {
        return time != o.time ? time > o.time : key > o.key;
    }
};

class calendar_queue {
public:
    /// Re-arms the queue.  `bucket_width` is the tick quantum (> 0),
    /// `max_delay` the largest single-deposit look-ahead the delay model can
    /// produce (sizes the ring window), `num_edges` the netlist edge count
    /// (sizes the node pool — one slot per edge).
    void reset(double bucket_width, double max_delay, std::size_t num_edges) {
        inv_width_ = 1.0 / bucket_width;
        // Window: 4x the worst-case look-ahead in ticks, so in-window stays
        // the common case even when the frontier sits mid-window.
        const double span = max_delay * inv_width_;
        std::size_t want =
            span < 1e6 ? 4 * static_cast<std::size_t>(span) + 2 : (1u << 16);
        std::size_t n = 64;
        while (n < want && n < (std::size_t{1} << 16)) n <<= 1;
        mask_ = n - 1;
        buckets_.assign(n, chain{k_npos, k_npos});
        occupied_.assign(n >> 6, 0);
        slot_.resize(num_edges);
        next_.assign(num_edges, k_free);
        cur_tick_ = 0;
        run_.clear();
        run_idx_ = 0;
        overflow_.clear();
        ring_count_ = 0;
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    void push(const cal_event& d) { push_at(tick_of(d.time), d); }

    /// The tick of a time — lets a caller scheduling several deposits at the
    /// same time quantize it once and push with push_at.
    std::uint64_t tick_of(double time) const {
        return static_cast<std::uint64_t>(time * inv_width_);
    }

    /// Push with a precomputed tick (must equal tick_of(d.time)).
    void push_at(std::uint64_t tick, const cal_event& d) {
        ++size_;
        // One compare covers both rare cases: tick <= cur_tick_ wraps the
        // subtraction to a huge value, tick >= cur_tick_ + N stays >= N - 1.
        if (tick - cur_tick_ - 1 < buckets_.size() - 1 && !inflight(d.edge())) {
            insert_ring(tick, d);
            return;
        }
        push_slow(tick, d);
    }

    /// Pops the globally minimal (time, seq) deposit.  Precondition: !empty().
    /// The reference is valid until the next push or pop — read the fields
    /// out before scheduling anything.
    const cal_event& pop_min() {
        if (run_idx_ == run_.size()) refill_run();
        --size_;
        return run_[run_idx_++];
    }

    /// Snapshot: appends every pending deposit to `out` — the in-drain
    /// remainder of the current run, the ring chains (walked through the
    /// occupancy bitmap) and the overflow heap.  Order is unspecified; the
    /// queue itself is unchanged.  This is the fork-at-split checkpoint
    /// surface: a caller can capture the full event set mid-drain and later
    /// rebuild an equivalent queue with restore().
    void snapshot_pending(std::vector<cal_event>& out) const {
        out.reserve(out.size() + size_);
        out.insert(out.end(),
                   run_.begin() + static_cast<std::ptrdiff_t>(run_idx_),
                   run_.end());
        for (std::size_t w = 0; w < occupied_.size(); ++w) {
            for (std::uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
                const std::size_t pos =
                    (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits));
                for (std::uint32_t e = buckets_[pos].head; e != k_npos;
                     e = next_[e]) {
                    out.push_back(slot_[e]);
                }
            }
        }
        out.insert(out.end(), overflow_.begin(), overflow_.end());
    }

    /// Restore: re-arms the queue (same geometry as reset) and reloads a
    /// snapshot_pending event set.  The frontier restarts at tick 0, so
    /// mid-stream events land in the overflow heap and migrate into the ring
    /// as refill_run advances — pop order stays exactly (time, seq), which
    /// is all the bit-identity contract needs.
    void restore(double bucket_width, double max_delay, std::size_t num_edges,
                 const std::vector<cal_event>& events) {
        reset(bucket_width, max_delay, num_edges);
        for (const cal_event& d : events) push(d);
    }

private:
    static constexpr std::uint32_t k_npos = ~std::uint32_t{0};
    /// next_ sentinel for "not in the ring" — next_ doubles as the in-flight
    /// marker, so push touches one array instead of a chain-link array plus
    /// a presence bitmap.
    static constexpr std::uint32_t k_free = k_npos - 1;

    /// One bucket's chain endpoints, paired so a push reads and writes a
    /// single location.
    struct chain {
        std::uint32_t head;
        std::uint32_t tail;
    };

    bool inflight(pl::edge_id e) const { return next_[e] != k_free; }

    void push_slow(std::uint64_t tick, const cal_event& d) {
        if (tick <= cur_tick_) {
            // Into the run currently draining (or, with a zero-delay model,
            // nominally behind it): keep the run sorted past the drain point
            // so pop order stays exact.
            run_.insert(std::upper_bound(run_.begin() +
                                             static_cast<std::ptrdiff_t>(run_idx_),
                                         run_.end(), d),
                        d);
            return;
        }
        overflow_.push_back(d);
        std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>());
    }

    /// Appends the deposit to its bucket's chain.  Precondition: in-window
    /// tick and no deposit in flight on d.edge.
    void insert_ring(std::uint64_t tick, const cal_event& d) {
        const std::size_t pos = tick & mask_;
        const std::uint32_t e = d.edge();
        slot_[e] = d;
        next_[e] = k_npos;
        chain& b = buckets_[pos];
        if (b.tail == k_npos) {
            b.head = e;
            occupied_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
        } else {
            next_[b.tail] = e;
        }
        b.tail = e;
        ++ring_count_;
    }

    /// Earliest occupied ring tick strictly after cur_tick_ (bitmap scan;
    /// precondition ring_count_ > 0, which guarantees a set bit).
    std::uint64_t next_ring_tick() const {
        const std::size_t start = (cur_tick_ + 1) & mask_;
        std::size_t word = start >> 6;
        std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
        for (;;) {
            if (bits != 0) {
                const std::size_t pos =
                    (word << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(bits));
                // Distance from cur_tick_+1's ring position, wrapping once.
                const std::uint64_t dist = (pos - start) & mask_;
                return cur_tick_ + 1 + dist;
            }
            word = word + 1 == occupied_.size() ? 0 : word + 1;
            bits = occupied_[word];
        }
    }

    /// Advances cur_tick_ to the next occupied tick (ring or overflow
    /// frontier, whichever is earlier) and loads its deposits into run_,
    /// sorted by (time, seq).  Events at the new tick may live in both the
    /// ring bucket and the overflow heap; both are merged before sorting.
    /// Precondition: run_ is fully drained and size_ > 0.
    void refill_run() {
        run_.clear();
        run_idx_ = 0;
        const std::uint64_t t_ring =
            ring_count_ > 0 ? next_ring_tick() : ~std::uint64_t{0};
        const std::uint64_t t_ovf =
            overflow_.empty() ? ~std::uint64_t{0} : tick_of(overflow_.front().time);
        cur_tick_ = std::min(t_ring, t_ovf);
        // Pull every overflow deposit the window now covers: same-tick ones
        // join the run, later ones drop into their ring bucket — unless that
        // edge already has an in-flight slot (unsafe-netlist fallback), in
        // which case migration stops and retries at the next refill.
        while (!overflow_.empty() &&
               tick_of(overflow_.front().time) < cur_tick_ + buckets_.size()) {
            const cal_event d = overflow_.front();
            const std::uint64_t tick = tick_of(d.time);
            if (tick > cur_tick_ && inflight(d.edge())) break;
            std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>());
            overflow_.pop_back();
            if (tick <= cur_tick_) {
                run_.push_back(d);
            } else {
                insert_ring(tick, d);
            }
        }
        const std::size_t pos = cur_tick_ & mask_;
        bool sorted = true;
        if (occupied_[pos >> 6] & (std::uint64_t{1} << (pos & 63))) {
            occupied_[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
            chain& b = buckets_[pos];
            for (std::uint32_t e = b.head; e != k_npos;) {
                if (!run_.empty() && slot_[e] < run_.back()) sorted = false;
                run_.push_back(slot_[e]);
                const std::uint32_t n = next_[e];
                next_[e] = k_free;
                e = n;
                --ring_count_;
            }
            b.head = k_npos;
            b.tail = k_npos;
        }
        if (!sorted) sort_run();
    }

    /// Sorts run_ by (time, seq).  Chain order is seq order and times arrive
    /// nearly sorted, so small runs use adaptive insertion sort.
    void sort_run() {
        const std::size_t n = run_.size();
        if (n > 48) {
            std::sort(run_.begin(), run_.end());
            return;
        }
        for (std::size_t i = 1; i < n; ++i) {
            const cal_event d = run_[i];
            std::size_t j = i;
            while (j > 0 && d < run_[j - 1]) {
                run_[j] = run_[j - 1];
                --j;
            }
            run_[j] = d;
        }
    }

    double inv_width_ = 1.0;
    std::vector<chain> buckets_;       ///< per bucket: chain endpoints
    std::vector<std::uint64_t> occupied_;  ///< bit per bucket: non-empty
    std::vector<cal_event> slot_;      ///< node pool, indexed by edge id
    /// Chain links, indexed by edge id; k_free when the edge has no deposit
    /// in the ring, k_npos at end of chain.
    std::vector<std::uint32_t> next_;
    std::size_t mask_ = 0;
    std::uint64_t cur_tick_ = 0;   ///< tick of the bucket being drained
    std::vector<cal_event> run_;     ///< current bucket, sorted by (time, seq)
    std::size_t run_idx_ = 0;      ///< drain position within run_
    std::vector<cal_event> overflow_;  ///< min-heap of beyond-window deposits
    std::size_t ring_count_ = 0;   ///< deposits resident in the ring
    std::size_t size_ = 0;
};

}  // namespace plee::sim
