// vectors_env.hpp — the random-vector count of the paper drivers.
//
// The table and figure reproductions simulate 100 random vectors per
// circuit unless PLEE_VECTORS says otherwise (CI runs them at 10).  A value
// that is not a whole number > 0 ends the driver with exit status 1 and a
// message naming the variable and the value, rather than an abort in the
// first measurement or a count wrapped to 2^64 - 5 that never finishes.

#pragma once

#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "rt/parse.hpp"

namespace plee::bench {

/// PLEE_VECTORS when set, else 100; a bad value exits 1.
inline std::size_t vectors_from_env() {
    const char* env = std::getenv("PLEE_VECTORS");
    if (env == nullptr) return 100;
    try {
        return parse_positive<std::size_t>("PLEE_VECTORS", env);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(1);
    }
}

}  // namespace plee::bench
