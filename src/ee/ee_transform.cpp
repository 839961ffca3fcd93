#include "ee/ee_transform.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>

#include "obs/flight_recorder.hpp"
#include "obs/registry.hpp"
#include "obs/span.hpp"
#include "rt/workers.hpp"

namespace plee::ee {

namespace {

/// Runs the trigger search for masters pulled in chunks from a shared
/// counter, writing each winner to its own slot — the output is
/// position-addressed, so any work interleaving yields the same result.
/// Each master's pin arrivals go into one buffer the worker reuses.
void search_worker(const pl::pl_netlist& pl, const std::vector<int>& arrival,
                   const std::vector<pl::gate_id>& masters,
                   const search_options& search, const job_context& ctx,
                   std::atomic<std::size_t>& next,
                   std::vector<std::optional<trigger_candidate>>& best) {
    constexpr std::size_t k_chunk = 16;
    std::vector<int> pin_arrivals;
    pin_arrivals.reserve(bf::k_max_vars);
    for (;;) {
        const std::size_t begin = next.fetch_add(k_chunk, std::memory_order_relaxed);
        if (begin >= masters.size()) return;
        ctx.poll("ee.search", begin);
        if (ctx.recorder != nullptr) {
            ctx.recorder->record("ee.chunk", begin, masters.size());
        }
        const std::size_t end = std::min(begin + k_chunk, masters.size());
        for (std::size_t i = begin; i < end; ++i) {
            pin_arrivals.clear();
            for (pl::edge_id e : pl.data_in(masters[i])) {
                pin_arrivals.push_back(arrival[pl.edge(e).from]);
            }
            best[i] = find_best_trigger(pl.gate(masters[i]).function, pin_arrivals,
                                        search);
        }
    }
}

}  // namespace

ee_stats apply_early_evaluation(pl::pl_netlist& pl, const ee_options& options,
                                const job_context& ctx) {
    const obs::scoped_span pass_span(ctx.trace, "ee.pass");
    ee_stats stats;
    const std::vector<int> arrival = pl.arrival_depth();

    // Snapshot the candidate masters first: attaching triggers appends gates
    // and edges, which must not perturb the iteration or the arrival model.
    std::vector<pl::gate_id> masters;
    for (pl::gate_id g = 0; g < pl.num_gates(); ++g) {
        if (pl.gate(g).kind == pl::gate_kind::compute && pl.data_in(g).size() >= 2) {
            masters.push_back(g);
        }
    }
    stats.masters_considered = masters.size();

    // Phase 1 — search, read-only over the netlist and safe to fan out: each
    // master's search is a pure function of its truth table and arrivals.
    std::vector<std::optional<trigger_candidate>> best(masters.size());
    {
        const obs::scoped_span search_span(ctx.trace, "ee.search");
        std::atomic<std::size_t> next{0};
        run_workers(worker_count(options.num_threads, masters.size()), [&] {
            search_worker(pl, arrival, masters, options.search, ctx, next, best);
        });
    }

    // Phase 2 — mutate, serial and in gate order: identical output to the
    // original sequential pass regardless of the thread count above.
    for (std::size_t i = 0; i < masters.size(); ++i) {
        if (!best[i]) continue;
        const pl::gate_id trig =
            pl.attach_trigger(masters[i], best[i]->function, best[i]->support);
        stats.applied.push_back({masters[i], trig, *best[i]});
        ++stats.triggers_added;
    }

    // Check the result (throws on failure); a pass is remembered on the
    // netlist for the simulator.  A netlist that passed verify() before the
    // pass, as every mapped netlist has, still holds that pass, since
    // attach_trigger keeps it; any other gets the full analysis here.
    const pl::mg_report report = pl.verify();
    if (!report.ok()) {
        throw std::logic_error("apply_early_evaluation: marked graph invalid: " +
                               report.violation);
    }

    // Process-wide pass accounting; one flush per transform, not per gate.
    if (ctx.telemetry) {
        static obs::counter& masters =
            obs::registry::global().get_counter("ee.masters_considered");
        static obs::counter& triggers =
            obs::registry::global().get_counter("ee.triggers_added");
        masters.add(stats.masters_considered);
        triggers.add(stats.triggers_added);
    }
    return stats;
}

}  // namespace plee::ee
