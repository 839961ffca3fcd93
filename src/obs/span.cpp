#include "obs/span.hpp"

#include <utility>

namespace plee::obs {

std::size_t trace::open(std::string name) {
    span_record s;
    s.name = std::move(name);
    s.start_ms = timer_.elapsed_ms();
    s.parent = current_;
    const std::size_t index = spans_.size();
    spans_.push_back(std::move(s));
    current_ = static_cast<int>(index);
    return index;
}

void trace::close(std::size_t index) {
    if (index >= spans_.size()) return;
    span_record& s = spans_[index];
    s.dur_ms = timer_.elapsed_ms() - s.start_ms;
    if (current_ == static_cast<int>(index)) current_ = s.parent;
}

}  // namespace plee::obs
