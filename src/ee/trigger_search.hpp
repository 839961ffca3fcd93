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
    /// master's cannot produce an output any earlier.  find_best_trigger
    /// applies it before any trigger work: only supports of early pins
    /// (arrival below Mmax) are searched at all.
    bool require_arrival_gain = true;
    /// Weight coverage by the Mmax/Tmax arrival ratio (Equation 1).  Turning
    /// this off selects by raw coverage only — the ablation the paper argues
    /// against ("a large coverage ... may depend on slowly arriving signals").
    bool weight_by_arrival = true;
};

/// The best implementable candidate under `options`, or none: the highest
/// cost above `cost_threshold`, ties going to more covered minterms, then
/// to the smaller support, then to the earlier support in
/// bf::support_subsets order.  This is the one place a winner is picked.
/// `pin_arrivals` holds the arrival depth (>= 0) of each master input
/// signal, pin-ordered.
///
/// With `require_arrival_gain` only supports of early pins are searched: a
/// pin is early when its arrival is below Mmax.  That is exact.  A support
/// holding a pin at Mmax has Tmax = Mmax and would be scored only to be
/// rejected, and the remaining supports are visited in the same order, so
/// the winner is the one a sweep over every support picks.  A master with
/// no early pin returns at once, and the cube-list cover is built only when
/// some support is searched.  No candidate list is built: the search keeps
/// only the best so far.  A pure function of its arguments, so concurrent
/// calls need no locking.
std::optional<trigger_candidate> find_best_trigger(
    const bf::truth_table& master, const std::vector<int>& pin_arrivals,
    const search_options& options = {});

/// Every support's candidate (14 for a 4-input master), in
/// bf::support_subsets order, whatever its arrival gain or cost: the
/// supports whose trigger is empty or covers every minterm give none.
/// Arguments as for find_best_trigger.  For the Table 1/2 reproduction,
/// the micro-benchmarks and diagnostics; the EE pass calls
/// find_best_trigger, which searches fewer supports.
std::vector<trigger_candidate> trigger_candidates(
    const bf::truth_table& master, const std::vector<int>& pin_arrivals,
    const search_options& options = {});

}  // namespace plee::ee
