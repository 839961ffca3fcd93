#include "rt/parse.hpp"

#include <cmath>

namespace plee {

double parse_non_negative(std::string_view flag, std::string_view text) {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || stop != end ||
        !std::isfinite(value) || value < 0.0) {
        throw std::invalid_argument(std::string(flag) +
                                    ": expected a finite number >= 0, got '" +
                                    std::string(text) + "'");
    }
    return value;
}

}  // namespace plee
