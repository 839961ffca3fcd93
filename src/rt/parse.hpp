// parse.hpp — strict parsing of numeric command-line values.
//
// std::strto* stop at the first bad character, return 0 for garbage and wrap
// negative input into unsigned types, so a typo used to run silently with
// the wrong value ("--threads -1" became 4294967295, "--seed 12abc" became
// 12, "--job-deadline-ms nan" meant no deadline).  These helpers accept a
// value only when the whole string is one number of the requested kind and
// range, and otherwise throw std::invalid_argument naming the flag — which
// the tools report as a usage error.

#pragma once

#include <charconv>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace plee {

/// The whole of `text` as a decimal unsigned integer of type T: digits
/// only — no sign, no whitespace, nothing trailing — and within T's range.
template <class T>
T parse_unsigned(std::string_view flag, std::string_view text) {
    static_assert(std::is_unsigned_v<T>);
    T value = 0;
    const char* end = text.data() + text.size();
    const auto [stop, ec] = std::from_chars(text.data(), end, value);
    if (text.empty() || ec != std::errc{} || stop != end) {
        throw std::invalid_argument(
            std::string(flag) + ": expected an unsigned integer up to " +
            std::to_string(std::numeric_limits<T>::max()) + ", got '" +
            std::string(text) + "'");
    }
    return value;
}

/// parse_unsigned for a count that must be at least 1 ("--vectors 0" would
/// measure nothing).
template <class T>
T parse_positive(std::string_view flag, std::string_view text) {
    const T value = parse_unsigned<T>(flag, text);
    if (value == 0) {
        throw std::invalid_argument(std::string(flag) + ": must be > 0, got '" +
                                    std::string(text) + "'");
    }
    return value;
}

/// The whole of `text` as a finite double >= 0 (no "nan", "inf" or
/// negative values, nothing trailing).
double parse_non_negative(std::string_view flag, std::string_view text);

}  // namespace plee
