#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace e2e {

namespace {

// Rank (1-based) of the nearest-rank p-th percentile in a sample of n. The
// slack keeps p * n / 100 that is an integer in exact arithmetic (98% of
// 100) from rounding up a rank through the binary representation of p.
long nearest_rank(long n, double p) {
  const auto r = static_cast<long>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp(r, 1L, n);
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) throw std::invalid_argument("median: empty sample");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<long>(mid), v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<long>(mid));
  return 0.5 * (lo + hi);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile: empty sample");
  if (!(p > 0.0 && p <= 100.0))
    throw std::invalid_argument("percentile: p outside (0, 100]");
  const long r = nearest_rank(static_cast<long>(v.size()), p);
  std::nth_element(v.begin(), v.begin() + (r - 1), v.end());
  return v[static_cast<std::size_t>(r - 1)];
}

std::optional<double> tail_percentile(long n) {
  constexpr long kMinBeyond = 10;
  if (n < 40) return std::nullopt;
  static constexpr double kLadder[] = {99.9, 99.5, 99.0, 98.0,
                                       95.0, 90.0, 50.0};
  for (const double p : kLadder)
    if (n - nearest_rank(n, p) >= kMinBeyond) return p;
  return std::nullopt;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean: empty sample");
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace e2e
