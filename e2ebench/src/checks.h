// Correctness checks on the program's outputs. Each check is an independent
// computation or a property the method must have; none compares against a
// stored copy of earlier output. A check returns an empty string when it
// passes and a one-line description of the first violation otherwise.
#pragma once

#include <string>
#include <vector>

#include "grid/grid2d.h"
#include "risk/burn_probability.h"
#include "util/array2d.h"

namespace e2e {

namespace grid = wfire::grid;
namespace risk = wfire::risk;
namespace util = wfire::util;

// psi finite everywhere; tig finite or +inf (never ignited), never NaN.
[[nodiscard]] std::string check_finite_state(const util::Array2D<double>& psi,
                                             const util::Array2D<double>& tig);

// Bitwise equality of two fields (NaN-safe, distinguishes -0 from +0).
[[nodiscard]] std::string check_bitwise(const std::string& what,
                                        const util::Array2D<double>& expected,
                                        const util::Array2D<double>& actual);

// Mean over members of the distance between the centroid of each member's
// burning region (psi < 0) and that of the truth, over members that have a
// burning region; +inf when none has. Computed here, independently of
// core::AssimilationCycle::mean_position_error.
[[nodiscard]] double mean_centroid_error(
    const grid::Grid2D& g, const std::vector<const util::Array2D<double>*>& psis,
    const util::Array2D<double>& truth_psi);

// Member k's arrival slots equal its re-run ignition times bitwise where the
// member burned by the horizon, and +inf elsewhere.
[[nodiscard]] std::string check_arrival_slots(
    const risk::BurnProbabilityGrid& p, int k,
    const util::Array2D<double>& member_tig);

// Cells with probability 1 burned in every re-run member, cells with
// probability 0 in none of them.
[[nodiscard]] std::string check_probability_extremes(
    const risk::BurnProbabilityGrid& p,
    const std::vector<const util::Array2D<double>*>& member_tigs);

// probability == burned_count / K in every cell, and the counts agree with
// the arrival slots.
[[nodiscard]] std::string check_probability_counts(
    const risk::BurnProbabilityGrid& p);

// Two fetches of one product are the same product.
[[nodiscard]] std::string check_same_product(
    const risk::BurnProbabilityGrid& a, const risk::BurnProbabilityGrid& b);

// The projection left a divergence residual under its tolerance.
[[nodiscard]] std::string check_divergence(double max_div_after, double tol,
                                           long step);

// The sequence never decreases.
[[nodiscard]] std::string check_nondecreasing(const std::string& what,
                                              const std::vector<double>& v);

}  // namespace e2e
