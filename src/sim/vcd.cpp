#include "sim/vcd.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

namespace plee::sim {

namespace {

/// Compact VCD identifier for signal index i (printable ASCII 33..126).
std::string vcd_id(std::size_t i) {
    std::string id;
    do {
        id += static_cast<char>(33 + (i % 94));
        i /= 94;
    } while (i > 0);
    return id;
}

std::string signal_name(const pl::pl_netlist& pl, pl::gate_id g) {
    std::string base = pl.name(g).empty()
                           ? std::string(to_string(pl.gate(g).kind)) + std::to_string(g)
                           : std::string(pl.name(g));
    // VCD identifiers must not contain whitespace or brackets.
    for (char& c : base) {
        if (c == ' ' || c == '[' || c == ']') c = '_';
    }
    return base;
}

}  // namespace

std::string to_vcd(const pl::pl_netlist& pl, const std::vector<trace_event>& trace) {
    // One signal per gate that drives at least one data edge; a gate's data
    // fanout edges all carry the same token, so the first one represents it.
    std::vector<pl::gate_id> gate_of_signal;
    std::vector<pl::edge_id> probe_edge;  // representative edge per signal
    for (pl::gate_id g = 0; g < pl.num_gates(); ++g) {
        for (pl::edge_id e : pl.out_edges(g)) {
            if (pl.edge(e).kind == pl::edge_kind::data) {
                gate_of_signal.push_back(g);
                probe_edge.push_back(e);
                break;
            }
        }
    }

    std::ostringstream os;
    os << "$date plee self-timed trace $end\n";
    os << "$timescale 1ps $end\n";
    os << "$scope module pl $end\n";
    for (std::size_t i = 0; i < gate_of_signal.size(); ++i) {
        os << "$var wire 1 " << vcd_id(i) << " "
           << signal_name(pl, gate_of_signal[i]) << " $end\n";
    }
    os << "$upscope $end\n$enddefinitions $end\n";

    // Initial values unknown until the first token arrives.
    os << "$dumpvars\n";
    for (std::size_t i = 0; i < gate_of_signal.size(); ++i) {
        os << "x" << vcd_id(i) << "\n";
    }
    os << "$end\n";

    // Events, time-ordered, restricted to the representative edges and
    // filtered to actual value changes.
    struct change {
        long long ticks;
        std::size_t signal;
        bool value;
    };
    std::map<pl::edge_id, std::size_t> signal_of_edge;
    for (std::size_t i = 0; i < probe_edge.size(); ++i) {
        signal_of_edge.emplace(probe_edge[i], i);
    }
    std::vector<change> changes;
    changes.reserve(trace.size());
    for (const trace_event& ev : trace) {
        auto it = signal_of_edge.find(ev.edge);
        if (it == signal_of_edge.end()) continue;
        changes.push_back({static_cast<long long>(
                               std::llround(ev.time * 1000.0)),
                           it->second, ev.value});
    }
    std::stable_sort(changes.begin(), changes.end(),
                     [](const change& a, const change& b) { return a.ticks < b.ticks; });

    std::vector<int> last(gate_of_signal.size(), -1);
    long long current_time = -1;
    for (const change& c : changes) {
        if (last[c.signal] == static_cast<int>(c.value)) continue;
        if (c.ticks != current_time) {
            os << "#" << c.ticks << "\n";
            current_time = c.ticks;
        }
        os << (c.value ? "1" : "0") << vcd_id(c.signal) << "\n";
        last[c.signal] = static_cast<int>(c.value);
    }
    return os.str();
}

}  // namespace plee::sim
