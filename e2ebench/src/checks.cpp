#include "checks.h"

#include <cmath>
#include <cstring>
#include <limits>

namespace e2e {

namespace {

std::string at_cell(const std::string& what, std::size_t c, int nx) {
  return what + " at cell (" + std::to_string(c % static_cast<std::size_t>(nx)) +
         ", " + std::to_string(c / static_cast<std::size_t>(nx)) + ")";
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// Centroid of the burning region; false when nothing burns.
bool centroid(const grid::Grid2D& g, const util::Array2D<double>& psi,
              double& cx, double& cy) {
  double sx = 0, sy = 0;
  long n = 0;
  const double* p = psi.data();
  for (std::size_t c = 0; c < psi.size(); ++c) {
    if (!(p[c] < 0)) continue;
    const auto i = static_cast<int>(c % static_cast<std::size_t>(g.nx));
    const auto j = static_cast<int>(c / static_cast<std::size_t>(g.nx));
    sx += g.x0 + i * g.dx;
    sy += g.y0 + j * g.dy;
    ++n;
  }
  if (n == 0) return false;
  cx = sx / static_cast<double>(n);
  cy = sy / static_cast<double>(n);
  return true;
}

}  // namespace

std::string check_finite_state(const util::Array2D<double>& psi,
                               const util::Array2D<double>& tig) {
  for (std::size_t c = 0; c < psi.size(); ++c)
    if (!std::isfinite(psi.data()[c]))
      return at_cell("non-finite psi", c, psi.nx());
  for (std::size_t c = 0; c < tig.size(); ++c) {
    const double t = tig.data()[c];
    if (std::isnan(t) || t == -std::numeric_limits<double>::infinity())
      return at_cell("invalid tig", c, tig.nx());
  }
  return {};
}

std::string check_bitwise(const std::string& what,
                          const util::Array2D<double>& expected,
                          const util::Array2D<double>& actual) {
  if (expected.nx() != actual.nx() || expected.ny() != actual.ny())
    return what + ": shape differs";
  for (std::size_t c = 0; c < expected.size(); ++c)
    if (!same_bits(expected.data()[c], actual.data()[c]))
      return at_cell(what + " differs", c, expected.nx());
  return {};
}

double mean_centroid_error(const grid::Grid2D& g,
                           const std::vector<const util::Array2D<double>*>& psis,
                           const util::Array2D<double>& truth_psi) {
  double tx = 0, ty = 0;
  if (!centroid(g, truth_psi, tx, ty))
    return std::numeric_limits<double>::infinity();
  double total = 0;
  int counted = 0;
  for (const util::Array2D<double>* psi : psis) {
    double cx = 0, cy = 0;
    if (!centroid(g, *psi, cx, cy)) continue;
    total += std::hypot(cx - tx, cy - ty);
    ++counted;
  }
  return counted > 0 ? total / counted
                     : std::numeric_limits<double>::infinity();
}

std::string check_arrival_slots(const risk::BurnProbabilityGrid& p, int k,
                                const util::Array2D<double>& member_tig) {
  if (member_tig.nx() != p.nx || member_tig.ny() != p.ny)
    return "arrival slots: member shape differs";
  const double inf = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < member_tig.size(); ++c) {
    const double t = member_tig.data()[c];
    const double expected = t <= p.horizon ? t : inf;
    const auto i = static_cast<int>(c % static_cast<std::size_t>(p.nx));
    const auto j = static_cast<int>(c / static_cast<std::size_t>(p.nx));
    if (!same_bits(expected, p.arrival(i, j, k)))
      return at_cell("member " + std::to_string(k) + " arrival slot differs "
                     "from its re-run",
                     c, p.nx);
  }
  return {};
}

std::string check_probability_extremes(
    const risk::BurnProbabilityGrid& p,
    const std::vector<const util::Array2D<double>*>& member_tigs) {
  const double* prob = p.probability.data();
  for (std::size_t c = 0; c < p.probability.size(); ++c) {
    if (prob[c] != 0.0 && prob[c] != 1.0) continue;
    for (const util::Array2D<double>* tig : member_tigs) {
      const bool burned = tig->data()[c] <= p.horizon;
      if (prob[c] == 1.0 && !burned)
        return at_cell("probability 1 but a re-run member did not burn", c,
                       p.nx);
      if (prob[c] == 0.0 && burned)
        return at_cell("probability 0 but a re-run member burned", c, p.nx);
    }
  }
  return {};
}

std::string check_probability_counts(const risk::BurnProbabilityGrid& p) {
  if (p.members < 1) return "product has no members";
  const auto k = static_cast<std::size_t>(p.members);
  for (std::size_t c = 0; c < p.probability.size(); ++c) {
    const int count = p.burned_count.data()[c];
    if (p.probability.data()[c] != count / static_cast<double>(p.members))
      return at_cell("probability != burned_count / K", c, p.nx);
    int finite = 0;
    for (std::size_t m = 0; m < k; ++m)
      if (std::isfinite(p.arrivals[c * k + m])) ++finite;
    if (finite != count)
      return at_cell("burned_count disagrees with arrival slots", c, p.nx);
  }
  return {};
}

std::string check_same_product(const risk::BurnProbabilityGrid& a,
                               const risk::BurnProbabilityGrid& b) {
  if (a.key != b.key) return "repeated fetch: key differs";
  if (a.members != b.members || a.horizon != b.horizon)
    return "repeated fetch: members or horizon differ";
  if (auto e = check_bitwise("repeated fetch probability", a.probability,
                             b.probability);
      !e.empty())
    return e;
  if (a.arrivals.size() != b.arrivals.size() ||
      std::memcmp(a.arrivals.data(), b.arrivals.data(),
                  a.arrivals.size() * sizeof(double)) != 0)
    return "repeated fetch: arrivals differ";
  return {};
}

std::string check_divergence(double max_div_after, double tol, long step) {
  if (max_div_after < tol) return {};
  return "step " + std::to_string(step) + ": divergence residual " +
         std::to_string(max_div_after) + " not under tolerance " +
         std::to_string(tol);
}

std::string check_nondecreasing(const std::string& what,
                                const std::vector<double>& v) {
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i] < v[i - 1])
      return what + " decreased at sample " + std::to_string(i) + " (" +
             std::to_string(v[i - 1]) + " -> " + std::to_string(v[i]) + ")";
  return {};
}

}  // namespace e2e
