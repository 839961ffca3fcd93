#include "netlist/netlist.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>

namespace plee::nl {

const char* to_string(cell_kind kind) {
    switch (kind) {
        case cell_kind::input: return "input";
        case cell_kind::constant: return "constant";
        case cell_kind::lut: return "lut";
        case cell_kind::dff: return "dff";
        case cell_kind::output: return "output";
    }
    return "?";
}

cell_id netlist::add_cell(cell c) {
    cells_.push_back(std::move(c));
    return static_cast<cell_id>(cells_.size() - 1);
}

cell_id netlist::add_input(std::string name) {
    cell c;
    c.kind = cell_kind::input;
    c.name = std::move(name);
    const cell_id id = add_cell(std::move(c));
    inputs_.push_back(id);
    return id;
}

cell_id netlist::add_constant(bool value) {
    cell c;
    c.kind = cell_kind::constant;
    c.const_value = value;
    return add_cell(std::move(c));
}

cell_id netlist::add_lut(const bf::truth_table& function, std::vector<cell_id> fanins,
                         std::string name) {
    if (function.num_vars() != static_cast<int>(fanins.size())) {
        throw std::invalid_argument("add_lut: function arity != fanin count");
    }
    if (fanins.empty()) {
        throw std::invalid_argument("add_lut: LUT must have at least one fanin");
    }
    cell c;
    c.kind = cell_kind::lut;
    c.name = std::move(name);
    c.fanins = std::move(fanins);
    c.function = function;
    return add_cell(std::move(c));
}

cell_id netlist::add_dff(cell_id d, bool init, std::string name) {
    cell c;
    c.kind = cell_kind::dff;
    c.name = std::move(name);
    c.fanins = {d};
    c.init_value = init;
    const cell_id id = add_cell(std::move(c));
    dffs_.push_back(id);
    return id;
}

void netlist::set_dff_input(cell_id dff, cell_id d) {
    if (dff >= cells_.size() || cells_[dff].kind != cell_kind::dff) {
        throw std::invalid_argument("set_dff_input: not a DFF cell");
    }
    cells_[dff].fanins = {d};
}

cell_id netlist::add_output(std::string name, cell_id src) {
    cell c;
    c.kind = cell_kind::output;
    c.name = std::move(name);
    c.fanins = {src};
    const cell_id id = add_cell(std::move(c));
    outputs_.push_back(id);
    return id;
}

const cell& netlist::at(cell_id id) const {
    if (id >= cells_.size()) throw std::out_of_range("netlist::at: bad cell id");
    return cells_[id];
}

std::size_t netlist::num_luts() const {
    return static_cast<std::size_t>(
        std::count_if(cells_.begin(), cells_.end(),
                      [](const cell& c) { return c.kind == cell_kind::lut; }));
}

std::vector<cell_id> netlist::topo_order() const {
    // Within one clock cycle, DFF outputs are constants; only LUT->LUT edges
    // constrain the order.  Iterative DFS with cycle detection.
    enum class mark : std::uint8_t { white, grey, black };
    std::vector<mark> marks(cells_.size(), mark::white);
    std::vector<cell_id> order;
    order.reserve(cells_.size());

    // Sources first for a stable, readable order.
    for (cell_id id = 0; id < cells_.size(); ++id) {
        const cell_kind k = cells_[id].kind;
        if (k == cell_kind::input || k == cell_kind::constant || k == cell_kind::dff) {
            order.push_back(id);
            marks[id] = mark::black;
        }
    }

    // Explicit stack of (cell, next fanin index) pairs.
    std::vector<std::pair<cell_id, std::size_t>> stack;
    for (cell_id root = 0; root < cells_.size(); ++root) {
        if (marks[root] != mark::white || cells_[root].kind != cell_kind::lut) continue;
        stack.emplace_back(root, 0);
        marks[root] = mark::grey;
        while (!stack.empty()) {
            auto& [id, next] = stack.back();
            const auto& fanins = cells_[id].fanins;
            if (next < fanins.size()) {
                const cell_id f = fanins[next++];
                if (f == k_invalid_cell || f >= cells_.size()) {
                    throw std::logic_error("topo_order: unresolved fanin");
                }
                if (cells_[f].kind != cell_kind::lut) continue;
                if (marks[f] == mark::grey) {
                    throw std::logic_error("topo_order: combinational cycle through cell " +
                                           std::to_string(f));
                }
                if (marks[f] == mark::white) {
                    marks[f] = mark::grey;
                    stack.emplace_back(f, 0);
                }
            } else {
                marks[id] = mark::black;
                order.push_back(id);
                stack.pop_back();
            }
        }
    }

    for (cell_id id = 0; id < cells_.size(); ++id) {
        if (cells_[id].kind == cell_kind::output) order.push_back(id);
    }
    return order;
}

void netlist::validate() const {
    std::vector<std::string_view> port_names;
    for (cell_id id = 0; id < cells_.size(); ++id) {
        const cell& c = cells_[id];
        if (c.kind == cell_kind::input || c.kind == cell_kind::output) {
            if (c.name.empty()) {
                throw std::logic_error("validate: port cell " + std::to_string(id) +
                                       " has no name");
            }
            port_names.push_back(c.name);
        }
        for (cell_id f : c.fanins) {
            if (f == k_invalid_cell) {
                throw std::logic_error("validate: cell " + std::to_string(id) +
                                       " has an unconnected fanin");
            }
            if (f >= cells_.size()) {
                throw std::logic_error("validate: cell " + std::to_string(id) +
                                       " references out-of-range fanin");
            }
            if (cells_[f].kind == cell_kind::output) {
                throw std::logic_error("validate: output port used as a fanin");
            }
        }
        switch (c.kind) {
            case cell_kind::lut:
                if (c.fanins.empty() ||
                    c.fanins.size() > static_cast<std::size_t>(bf::k_max_vars)) {
                    throw std::logic_error("validate: LUT fanin count out of range");
                }
                if (c.function.num_vars() != static_cast<int>(c.fanins.size())) {
                    throw std::logic_error("validate: LUT arity mismatch");
                }
                break;
            case cell_kind::dff:
            case cell_kind::output:
                if (c.fanins.size() != 1) {
                    throw std::logic_error("validate: dff/output must have exactly one fanin");
                }
                break;
            case cell_kind::input:
            case cell_kind::constant:
                if (!c.fanins.empty()) {
                    throw std::logic_error("validate: source cell must have no fanins");
                }
                break;
        }
    }
    std::sort(port_names.begin(), port_names.end());
    const auto dup = std::adjacent_find(port_names.begin(), port_names.end());
    if (dup != port_names.end()) {
        throw std::logic_error("validate: duplicate port name '" + std::string(*dup) +
                               "'");
    }
    (void)topo_order();  // throws on combinational cycles
}

bool netlist::respects_fanin_limit(int max_fanin) const {
    return std::all_of(cells_.begin(), cells_.end(), [max_fanin](const cell& c) {
        return c.kind != cell_kind::lut ||
               c.fanins.size() <= static_cast<std::size_t>(max_fanin);
    });
}

std::string netlist::to_dot(const std::string& graph_name) const {
    std::ostringstream os;
    os << "digraph " << graph_name << " {\n  rankdir=LR;\n";
    for (cell_id id = 0; id < cells_.size(); ++id) {
        const cell& c = cells_[id];
        os << "  n" << id << " [label=\"";
        switch (c.kind) {
            case cell_kind::input: os << "IN " << c.name; break;
            case cell_kind::output: os << "OUT " << c.name; break;
            case cell_kind::constant: os << (c.const_value ? "1" : "0"); break;
            case cell_kind::dff: os << "DFF" << (c.init_value ? "/1" : "/0"); break;
            case cell_kind::lut: os << "LUT" << c.fanins.size(); break;
        }
        os << "\", shape=" << (c.kind == cell_kind::dff ? "box" : "ellipse") << "];\n";
    }
    for (cell_id id = 0; id < cells_.size(); ++id) {
        for (cell_id f : cells_[id].fanins) {
            if (f != k_invalid_cell) os << "  n" << f << " -> n" << id << ";\n";
        }
    }
    os << "}\n";
    return os.str();
}

}  // namespace plee::nl
