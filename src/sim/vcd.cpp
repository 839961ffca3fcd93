#include "sim/vcd.hpp"

#include <cmath>
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

    // Events in trace order, restricted to the representative edges and
    // filtered to actual value changes.  The trace is sorted by time and
    // rounding to picoseconds is monotone, so the ticks never decrease.
    constexpr std::size_t k_no_signal = ~std::size_t{0};
    std::vector<std::size_t> signal_of_edge(pl.num_edges(), k_no_signal);
    for (std::size_t i = 0; i < probe_edge.size(); ++i) signal_of_edge[probe_edge[i]] = i;

    std::vector<int> last(gate_of_signal.size(), -1);
    long long current_time = -1;
    for (const trace_event& ev : trace) {
        const std::size_t signal = signal_of_edge[ev.edge];
        if (signal == k_no_signal || last[signal] == static_cast<int>(ev.value)) continue;
        const long long ticks = std::llround(ev.time * 1000.0);
        if (ticks != current_time) {
            os << "#" << ticks << "\n";
            current_time = ticks;
        }
        os << (ev.value ? "1" : "0") << vcd_id(signal) << "\n";
        last[signal] = static_cast<int>(ev.value);
    }
    return os.str();
}

}  // namespace plee::sim
