// bench_table1_trigger — regenerates Tables 1 and 2 of the paper.
//
// Table 1: truth tables of the full-adder carry-out master c(a+b) + ab and
// the trigger ab + a'b' over support {a, b}.
// Table 2: derivation of candidate trigger functions from the master's
// ON/OFF cube lists, with the per-cube {a,b} coverage column.
//
// The program then runs the full 6-support-set search with the paper's
// arrival assumption (carry-in arrives last) and reports the winning
// candidate, demonstrating Equation 1 end to end.

#include <cstdio>
#include <optional>

#include "bool/cube_list.hpp"
#include "bool/support.hpp"
#include "ee/trigger_search.hpp"
#include "report/table.hpp"

using namespace plee;

namespace {

bf::truth_table carry_master() {
    const bf::truth_table a = bf::truth_table::variable(3, 0);
    const bf::truth_table b = bf::truth_table::variable(3, 1);
    const bf::truth_table c = bf::truth_table::variable(3, 2);
    return (c & (a | b)) | (a & b);
}

std::string support_name(std::uint32_t support) {
    static const char* names = "abc";
    std::string s = "{";
    for (int v : bf::support_members(support)) {
        if (s.size() > 1) s += ",";
        s += names[v];
    }
    return s + "}";
}

}  // namespace

int main() {
    const bf::truth_table master = carry_master();
    const bf::truth_table trigger = ee::exact_trigger_function(master, 0b011);

    std::printf("Table 1. Truth Tables for Master and Trigger Functions\n");
    std::printf("  master  = c(a+b) + ab   (full-adder carry-out)\n");
    std::printf("  trigger = ab + a'b'     (support {a,b})\n\n");
    {
        report::text_table t({"a b c", "Master", "Trigger"});
        for (std::uint32_t m = 0; m < 8; ++m) {
            // Paper's row order: a b c counting upward with a as the MSB.
            const bool av = (m >> 2) & 1u, bv = (m >> 1) & 1u, cv = m & 1u;
            const std::uint32_t minterm = (av ? 1u : 0u) | (bv ? 2u : 0u) | (cv ? 4u : 0u);
            const std::uint32_t packed = (av ? 1u : 0u) | (bv ? 2u : 0u);
            t.add_row({std::string(1, '0' + av) + " " + std::string(1, '0' + bv) +
                           " " + std::string(1, '0' + cv),
                       master.eval(minterm) ? "1" : "0",
                       trigger.eval(packed) ? "1" : "0"});
        }
        std::printf("%s\n", t.to_string().c_str());
    }

    std::printf("Table 2. Determination of Candidate Trigger Functions\n");
    const bf::on_off_cover cover = bf::make_on_off_cover(master);
    {
        report::text_table t(
            {"Master Cube", "Master Outputs", "{a,b} Coverage", "Trigger Function"});
        auto emit = [&](const bf::cube_list& cubes, const char* output) {
            for (const bf::cube& c : cubes.cubes()) {
                const bool confined = c.within_support(0b011);
                t.add_row({c.to_string(3), output,
                           confined ? std::to_string(c.num_minterms(3)) : "0",
                           confined ? "1" : "0"});
            }
        };
        emit(cover.off, "0");
        emit(cover.on, "1");
        std::printf("%s\n", t.to_string().c_str());
    }
    std::printf("f_ON(trig) cube list over {a,b}: ON %s, OFF %s  "
                "-> coverage 4/8 = 50%%\n\n",
                cover.on.restricted_to_support(0b011).to_string().c_str(),
                cover.off.restricted_to_support(0b011).to_string().c_str());

    std::printf("Full candidate search (paper Section 3): all support sets of\n"
                "3 or fewer variables, arrival depths a=0, b=0, c=2 (carry-in\n"
                "arrives last, as in a ripple chain):\n\n");
    {
        ee::search_options opts;
        opts.require_arrival_gain = false;  // show every candidate's score
        report::text_table t({"Support", "Trigger", "Coverage", "Mmax", "Tmax", "Cost"});
        for (const ee::trigger_candidate& c :
             ee::trigger_candidates(master, {0, 0, 2}, opts)) {
            t.add_row({support_name(c.support), c.function.to_string(),
                       report::fmt(c.coverage_percent, 0) + "%",
                       std::to_string(c.master_max_arrival),
                       std::to_string(c.trigger_max_arrival),
                       report::fmt(c.cost, 1)});
        }
        std::printf("%s\n", t.to_string().c_str());
        if (const std::optional<ee::trigger_candidate> best =
                ee::find_best_trigger(master, {0, 0, 2}, opts)) {
            std::printf("Best candidate: support %s, trigger %s, coverage %.0f%% "
                        "(the paper's ab + a'b' generate/kill detector).\n",
                        support_name(best->support).c_str(),
                        best->function.to_string().c_str(), best->coverage_percent);
        }
    }
    return 0;
}
