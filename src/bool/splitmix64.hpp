// splitmix64.hpp — the repository's one splitmix64 finalizer.
//
// The workload generator's random stream, the seeded test generators and
// the repository benchmark's per-job seeds all hash through this exact
// constant/shift sequence; the generator relies on it for its
// byte-identical-per-seed determinism contract.  Keep the single definition
// here so the users can never drift apart.

#pragma once

#include <cstdint>

namespace plee::bf {

constexpr std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

}  // namespace plee::bf
