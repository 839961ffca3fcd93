#include "netlist/sync_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace plee::nl {

namespace {

sync_program compile(const netlist& nl) {
    const auto resolved = [&](cell_id f) {
        if (f >= nl.num_cells()) {
            throw std::logic_error("sync_simulator: unresolved fanin");
        }
        return f;
    };
    sync_program p;
    std::size_t num_fanins = 0;
    for (const cell& c : nl.cells()) num_fanins += c.fanins.size();
    p.luts.reserve(nl.num_cells());
    p.fanins.reserve(num_fanins);
    p.words.reserve(nl.num_cells());
    p.dffs.reserve(nl.dffs().size());
    p.outputs.reserve(nl.outputs().size());
    for (cell_id id : nl.topo_order()) {
        const cell& c = nl.cells()[id];
        if (c.kind == cell_kind::constant) {
            p.constants.emplace_back(id, c.const_value);
        } else if (c.kind == cell_kind::lut) {
            p.luts.push_back({id, static_cast<std::uint32_t>(p.fanins.size()),
                              static_cast<std::uint32_t>(p.words.size()),
                              static_cast<std::uint32_t>(c.fanins.size())});
            for (cell_id f : c.fanins) p.fanins.push_back(f);
            for (int w = 0; w < c.function.num_words(); ++w) {
                p.words.push_back(c.function.word(w));
            }
        }
    }
    for (cell_id id : nl.dffs()) {
        const cell& c = nl.cells()[id];
        p.dffs.push_back({id, resolved(c.fanins.front()), c.init_value});
    }
    for (cell_id id : nl.outputs()) {
        p.outputs.emplace_back(id, resolved(nl.cells()[id].fanins.front()));
    }
    return p;
}

}  // namespace

sync_simulator::sync_simulator(const netlist& nl)
    : nl_(nl), program_(compile(nl)), values_(nl.num_cells(), 0),
      state_(program_.dffs.size(), 0) {
    reset();
}

void sync_simulator::reset() {
    std::fill(values_.begin(), values_.end(), 0);
    for (std::size_t k = 0; k < state_.size(); ++k) {
        state_[k] = program_.dffs[k].init ? 1 : 0;
    }
}

void sync_simulator::set_input(cell_id input, bool value) {
    if (nl_.at(input).kind != cell_kind::input) {
        throw std::invalid_argument("set_input: cell is not a primary input");
    }
    values_[input] = value ? 1 : 0;
}

void sync_simulator::set_input(const std::string& name, bool value) {
    for (cell_id id : nl_.inputs()) {
        if (nl_.at(id).name == name) {
            values_[id] = value ? 1 : 0;
            return;
        }
    }
    throw std::invalid_argument("set_input: no input named '" + name + "'");
}

void sync_simulator::set_inputs(const std::vector<bool>& values) {
    if (values.size() != nl_.inputs().size()) {
        throw std::invalid_argument("set_inputs: value count != input count");
    }
    for (std::size_t i = 0; i < values.size(); ++i) {
        values_[nl_.inputs()[i]] = values[i] ? 1 : 0;
    }
}

void sync_simulator::eval() {
    char* v = values_.data();
    for (const auto& [id, value] : program_.constants) v[id] = value ? 1 : 0;
    for (std::size_t k = 0; k < state_.size(); ++k) {
        v[program_.dffs[k].cell] = state_[k];
    }
    const cell_id* fanins = program_.fanins.data();
    const std::uint64_t* words = program_.words.data();
    for (const sync_program::lut_op& op : program_.luts) {
        const cell_id* pins = fanins + op.first_fanin;
        std::uint32_t minterm = 0;
        for (std::uint32_t i = 0; i < op.num_fanins; ++i) {
            minterm |= static_cast<std::uint32_t>(v[pins[i]]) << i;
        }
        v[op.cell] = static_cast<char>(
            (words[op.first_word + (minterm >> 6)] >> (minterm & 63)) & 1u);
    }
    for (const auto& [id, src] : program_.outputs) v[id] = v[src];
}

std::vector<bool> sync_simulator::output_values() const {
    std::vector<bool> out;
    out.reserve(program_.outputs.size());
    for (const auto& [id, src] : program_.outputs) out.push_back(values_[id] != 0);
    return out;
}

void sync_simulator::latch() {
    for (std::size_t k = 0; k < state_.size(); ++k) {
        state_[k] = values_[program_.dffs[k].d];
    }
}

void sync_simulator::step() {
    eval();
    latch();
}

std::vector<bool> sync_simulator::cycle(const std::vector<bool>& inputs) {
    set_inputs(inputs);
    step();
    return output_values();
}

bool sync_simulator::outputs_equal(const std::vector<bool>& expected) const {
    if (expected.size() != program_.outputs.size()) return false;
    for (std::size_t i = 0; i < expected.size(); ++i) {
        if ((values_[program_.outputs[i].first] != 0) != expected[i]) return false;
    }
    return true;
}

// ---------------------------------------------------------------------------
// 64-lane bit-parallel golden model.
// ---------------------------------------------------------------------------

sync_lane_simulator::sync_lane_simulator(const netlist& nl)
    : nl_(nl), program_(compile(nl)), values_(nl.num_cells(), 0),
      state_(program_.dffs.size(), 0) {
    reset();
}

void sync_lane_simulator::reset() {
    std::fill(values_.begin(), values_.end(), 0);
    for (std::size_t k = 0; k < state_.size(); ++k) {
        state_[k] = program_.dffs[k].init ? ~std::uint64_t{0} : 0;
    }
}

void sync_lane_simulator::set_input(cell_id input, std::uint64_t lanes) {
    if (nl_.at(input).kind != cell_kind::input) {
        throw std::invalid_argument("set_input: cell is not a primary input");
    }
    values_[input] = lanes;
}

void sync_lane_simulator::set_inputs(const std::uint64_t* lane_words,
                                     std::size_t count) {
    if (count != nl_.inputs().size()) {
        throw std::invalid_argument("set_inputs: word count != input count");
    }
    for (std::size_t i = 0; i < count; ++i) {
        values_[nl_.inputs()[i]] = lane_words[i];
    }
}

void sync_lane_simulator::eval() {
    std::uint64_t* v = values_.data();
    for (const auto& [id, value] : program_.constants) {
        v[id] = value ? ~std::uint64_t{0} : 0;
    }
    for (std::size_t k = 0; k < state_.size(); ++k) {
        v[program_.dffs[k].cell] = state_[k];
    }
    const cell_id* fanins = program_.fanins.data();
    const std::uint64_t* words = program_.words.data();
    std::uint64_t pin_lanes[bf::k_max_vars];
    for (const sync_program::lut_op& op : program_.luts) {
        const cell_id* pins = fanins + op.first_fanin;
        for (std::uint32_t i = 0; i < op.num_fanins; ++i) pin_lanes[i] = v[pins[i]];
        v[op.cell] = bf::truth_table::eval_word_lanes(
            words + op.first_word, static_cast<int>(op.num_fanins), pin_lanes);
    }
    for (const auto& [id, src] : program_.outputs) v[id] = v[src];
}

void sync_lane_simulator::latch() {
    for (std::size_t k = 0; k < state_.size(); ++k) {
        state_[k] = values_[program_.dffs[k].d];
    }
}

void sync_lane_simulator::step() {
    eval();
    latch();
}

void sync_lane_simulator::output_values(std::uint64_t* out) const {
    for (std::size_t i = 0; i < program_.outputs.size(); ++i) {
        out[i] = values_[program_.outputs[i].first];
    }
}

}  // namespace plee::nl
