// support.hpp — support-set enumeration for candidate trigger search.
//
// "We search over all 14 possible support sets of 3 or fewer variables"
// (Section 3): for a 4-input master the candidates are the C(4,1)+C(4,2)+
// C(4,3) = 4+6+4 = 14 proper subsets of the input set with 1..3 members.
// For masters with fewer live inputs the same rule applies to the actual
// support: every non-empty proper subset of size <= 3.

#pragma once

#include <cstdint>
#include <vector>

namespace plee::bf {

/// All non-empty proper subsets of `full_support` (a variable bitmask) with
/// at most `max_size` members, in deterministic order (by size, then value).
std::vector<std::uint32_t> enumerate_support_subsets(std::uint32_t full_support,
                                                     int max_size);

/// enumerate_support_subsets((1 << num_vars) - 1, max_size), the list a
/// trigger sweep over a num_vars-input master reads, built on its first
/// request and served from then on, so the netlist-scale pass neither
/// re-enumerates nor re-sorts per gate.  There are 81 such lists:
/// `num_vars` must lie in [0, 8] and `max_size` is clamped to [0, 8].
/// Thread-safe; the reference stays valid for the process lifetime.
const std::vector<std::uint32_t>& support_subsets(int num_vars, int max_size);

/// The variable indices present in a support mask, ascending.
std::vector<int> support_members(std::uint32_t support);

}  // namespace plee::bf
