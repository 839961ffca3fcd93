#include "obs/flight_recorder.hpp"

#include <utility>

namespace plee::obs {

flight_recorder::flight_recorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {}

void flight_recorder::push(fr_event&& e) {
    const std::lock_guard<std::mutex> lock(mu_);
    e.t_ms = timer_.elapsed_ms();
    ring_[total_ % ring_.size()] = std::move(e);
    ++total_;
}

void flight_recorder::record(const char* tag, std::uint64_t a,
                             std::uint64_t b) {
    fr_event e;
    e.tag = tag;
    e.a = a;
    e.b = b;
    push(std::move(e));
}

void flight_recorder::record_note(const char* tag, std::string note,
                                  std::uint64_t a) {
    fr_event e;
    e.tag = tag;
    e.a = a;
    e.note = std::move(note);
    push(std::move(e));
}

std::vector<fr_event> flight_recorder::dump() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::vector<fr_event> out;
    const std::size_t n = ring_.size();
    const std::size_t kept = total_ < n ? static_cast<std::size_t>(total_) : n;
    out.reserve(kept);
    const std::uint64_t first = total_ - kept;
    for (std::size_t i = 0; i < kept; ++i) {
        out.push_back(ring_[(first + i) % n]);
    }
    return out;
}

std::uint64_t flight_recorder::total_recorded() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return total_;
}

}  // namespace plee::obs
