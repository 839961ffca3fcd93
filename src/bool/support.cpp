#include "bool/support.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <mutex>
#include <stdexcept>

#include "bool/truth_table.hpp"

namespace plee::bf {

std::vector<std::uint32_t> enumerate_support_subsets(std::uint32_t full_support,
                                                     int max_size) {
    std::vector<std::uint32_t> subsets;
    // Enumerate submasks of full_support via the standard decrement-and-mask
    // walk, then order deterministically.
    for (std::uint32_t sub = full_support; sub != 0; sub = (sub - 1) & full_support) {
        if (sub == full_support) continue;  // proper subsets only
        if (std::popcount(sub) > max_size) continue;
        subsets.push_back(sub);
    }
    std::sort(subsets.begin(), subsets.end(), [](std::uint32_t a, std::uint32_t b) {
        const int ca = std::popcount(a);
        const int cb = std::popcount(b);
        return ca != cb ? ca < cb : a < b;
    });
    return subsets;
}

const std::vector<std::uint32_t>& support_subsets(int num_vars, int max_size) {
    if (num_vars < 0 || num_vars > k_max_vars) {
        throw std::invalid_argument("support_subsets: arity outside [0, 8]");
    }
    max_size = std::clamp(max_size, 0, k_max_vars);
    constexpr std::size_t k_sizes = k_max_vars + 1;
    static std::array<std::vector<std::uint32_t>, k_sizes * k_sizes> lists;
    static std::array<std::once_flag, k_sizes * k_sizes> built;
    const std::size_t i = static_cast<std::size_t>(num_vars) * k_sizes +
                          static_cast<std::size_t>(max_size);
    std::call_once(built[i], [&] {
        lists[i] = enumerate_support_subsets((1u << num_vars) - 1, max_size);
    });
    return lists[i];
}

std::vector<int> support_members(std::uint32_t support) {
    std::vector<int> members;
    for (int v = 0; v < 32; ++v) {
        if (support & (1u << v)) members.push_back(v);
    }
    return members;
}

}  // namespace plee::bf
