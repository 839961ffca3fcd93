// trigger_search.hpp — generalized Early Evaluation trigger computation.
//
// This is the algorithmic core of the paper.  For a master PL gate computing
// f over up to four inputs, enumerate every proper support subset S of at
// most three inputs ("all 14 possible support sets" for a 4-input master) and
// derive the trigger function trig_S: trig_S(x_S) = 1 exactly when the
// assignment x_S already determines f's value — the master may then emit its
// output before the remaining inputs arrive, because their values are don't
// cares ("Each time the trigger function evaluates to '1', the master gate
// can go ahead and evaluate even if the input signal c has not arrived").
//
// Two derivations are provided:
//   * cube_list  — the paper's construction (Table 2): cubes of the f_ON and
//     f_OFF covers whose literals all lie inside S.  Its coverage depends on
//     the quality of the SOP cover.
//   * exact      — cofactor test per subset assignment; yields the maximal
//     trigger for S and is the default used in the experiments.
//
// Candidates are scored with Equation 1,
//     Cost = %Coverage * Mmax / Tmax,
// where Coverage is the fraction of master minterms (ON and OFF) the trigger
// covers, and Mmax/Tmax are the worst-case arrival depths (in PL gates from
// the primary inputs) of the master/trigger input signals.  Arrival depths
// start at 0 for signals straight from the environment or a register, so the
// implementation computes the ratio as (Mmax+1)/(Tmax+1), which is defined
// everywhere and preserves the paper's ordering ("weighted by the relative
// arrival times").

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "bool/cube_list.hpp"
#include "bool/truth_table.hpp"

namespace plee::ee {

enum class trigger_method : std::uint8_t {
    exact,      ///< cofactor-constancy per subset assignment (maximal coverage)
    cube_list,  ///< the paper's Table 2 procedure over f_ON / f_OFF covers
};

struct trigger_candidate {
    std::uint32_t support = 0;        ///< pin mask over the master's inputs
    bf::truth_table function{0};      ///< over the support pins (compressed arity)
    int covered_minterms = 0;         ///< master minterms (ON and OFF) determined
    double coverage_percent = 0.0;    ///< 100 * covered / 2^n
    int master_max_arrival = 0;       ///< Mmax
    int trigger_max_arrival = 0;      ///< Tmax
    double cost = 0.0;                ///< Equation 1 (with the +1 smoothing)
};

/// The exact trigger for support S: one output bit per assignment of the S
/// pins, set when the master cofactor under that assignment is constant.
/// The result's arity equals the number of pins in `support`.
///
/// Computed word-parallel: the conjunctive fold of the master (resp. its
/// complement) over the free variables marks the constant-1 (resp.
/// constant-0) cofactors in one shift/AND cascade, and compacting the union
/// onto S yields the trigger — no per-minterm eval loop.  A 7- or 8-input
/// master first folds its free word-level variables (6 and 7) with ANDs of
/// word pairs; the single-word kernel then runs on each word left, and the
/// pieces are placed side by side.  tests/trigger_oracle.hpp holds the
/// per-minterm reference the tests check this against.
bf::truth_table exact_trigger_function(const bf::truth_table& master,
                                       std::uint32_t support);

/// The paper's cube-list trigger for support S: the union of ON- and
/// OFF-cover cubes confined to S, projected onto the S pins.
bf::truth_table cube_list_trigger_function(const bf::truth_table& master,
                                           const bf::on_off_cover& cover,
                                           std::uint32_t support);

/// Master minterms determined by `trigger` (over `support`): every minterm
/// whose S-projection satisfies the trigger.  This is the paper's Coverage
/// numerator ("the percentage of minterms that are in common with the
/// trigger and master function (both 0 and 1-valued)").
int covered_minterms(const bf::truth_table& master, std::uint32_t support,
                     const bf::truth_table& trigger);

/// Equation 1 with the depth-zero smoothing documented above.
double equation1_cost(double coverage_percent, int master_max_arrival,
                      int trigger_max_arrival);

struct search_options {
    trigger_method method = trigger_method::exact;
    int max_support_size = 3;       ///< the paper's "3 or fewer variables"
    double cost_threshold = 0.0;    ///< implement only candidates with cost > threshold
    /// Require Tmax < Mmax: a trigger whose slowest input is as slow as the
    /// master's cannot produce an output any earlier.
    bool require_arrival_gain = true;
    /// Weight coverage by the Mmax/Tmax arrival ratio (Equation 1).  Turning
    /// this off selects by raw coverage only — the ablation the paper argues
    /// against ("a large coverage ... may depend on slowly arriving signals").
    bool weight_by_arrival = true;
};

struct search_result {
    std::optional<trigger_candidate> best;
    /// Every evaluated candidate (14 for a 4-input master), for diagnostics,
    /// the Table 1/2 reproduction and the ablation benches.
    std::vector<trigger_candidate> all;
};

/// Evaluates every support subset of the master's inputs and returns the
/// best implementable candidate (if any) under `options`.  `pin_arrivals`
/// holds the arrival depth of each master input signal, pin-ordered.
/// Coverage is counted from the trigger's bits, so a truth_table is built
/// only for a candidate recorded in `all`.  A pure function of its
/// arguments, so concurrent calls need no locking.
search_result find_best_trigger(const bf::truth_table& master,
                                const std::vector<int>& pin_arrivals,
                                const search_options& options = {});

}  // namespace plee::ee
