// Tests of the benchmark's own code: every correctness check must fail on a
// deliberately corrupted output and pass on the clean one, and the
// percentile / tail-selection code must return known values on known
// inputs.
// Run: python3 e2ebench/run.py --selftest (exit status 0 = all pass).
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "checks.h"
#include "risk/burn_probability.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      ++g_failures;                                                   \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
    }                                                                 \
  } while (0)

#define EXPECT_PASS(err) EXPECT(std::string(err).empty())
#define EXPECT_FAIL(err) EXPECT(!std::string(err).empty())

using wfire::util::Array2D;
constexpr double kInf = std::numeric_limits<double>::infinity();

Array2D<double> ramp(int nx, int ny, double scale) {
  Array2D<double> a(nx, ny);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i) a(i, j) = scale * (i - 2.5 * j + 0.25);
  return a;
}

void replayed_scenario_flipped_cell() {
  const Array2D<double> live = ramp(9, 7, 1.5);
  Array2D<double> replay = live;
  EXPECT_PASS(e2e::check_bitwise("psi", live, replay));
  replay(4, 3) = std::nextafter(replay(4, 3), kInf);  // one ulp, one cell
  EXPECT_FAIL(e2e::check_bitwise("psi", live, replay));
  replay = live;
  replay(0, 0) = -replay(0, 0);  // a flipped sign
  EXPECT_FAIL(e2e::check_bitwise("psi", live, replay));
  Array2D<double> zero(2, 2, 0.0), negzero(2, 2, 0.0);
  negzero(1, 1) = -0.0;  // bitwise, not numeric, equality
  EXPECT_FAIL(e2e::check_bitwise("tig", zero, negzero));
  EXPECT_FAIL(e2e::check_bitwise("psi", Array2D<double>(3, 3), Array2D<double>(3, 4)));
}

// A 4-member product on a 5x4 grid, with member k's tig known.
struct Sweep {
  std::vector<Array2D<double>> tigs;
  wfire::risk::BurnProbabilityGrid grid;
};

Sweep make_sweep() {
  Sweep s;
  const double horizon = 10.0;
  wfire::risk::BurnProbabilityAccumulator acc(5, 4, 6.0, 6.0, 4, horizon);
  for (int k = 0; k < 4; ++k) {
    Array2D<double> tig(5, 4, kInf);
    for (int j = 0; j < 4; ++j)
      for (int i = 0; i <= k + 1 && i < 5; ++i) tig(i, j) = 0.5 * i + 0.25 * k;
    tig(4, 3) = horizon + 1;  // burned after the horizon: not counted
    acc.add_member(k, tig);
    s.tigs.push_back(tig);
  }
  s.grid = acc.finalize();
  return s;
}

void member_arrival_slot_altered() {
  Sweep s = make_sweep();
  for (int k = 0; k < 4; ++k)
    EXPECT_PASS(e2e::check_arrival_slots(s.grid, k, s.tigs[static_cast<std::size_t>(k)]));
  // One member's slot altered in the product...
  wfire::risk::BurnProbabilityGrid bad = s.grid;
  bad.arrivals[(static_cast<std::size_t>(1) * 5 + 0) * 4 + 2] += 0.5;
  EXPECT_FAIL(e2e::check_arrival_slots(bad, 2, s.tigs[2]));
  EXPECT_PASS(e2e::check_arrival_slots(bad, 1, s.tigs[1]));  // other members intact
  // ...or the re-run disagreeing with the product.
  Array2D<double> rerun = s.tigs[3];
  rerun(2, 2) = kInf;
  EXPECT_FAIL(e2e::check_arrival_slots(s.grid, 3, rerun));
  // A member checked against another member's slots.
  EXPECT_FAIL(e2e::check_arrival_slots(s.grid, 0, s.tigs[3]));
}

void probability_checks() {
  Sweep s = make_sweep();
  EXPECT_PASS(e2e::check_probability_counts(s.grid));
  wfire::risk::BurnProbabilityGrid bad = s.grid;
  bad.probability(3, 1) += 0.25;
  EXPECT_FAIL(e2e::check_probability_counts(bad));
  bad = s.grid;
  bad.burned_count(0, 0) -= 1;
  bad.probability(0, 0) = bad.burned_count(0, 0) / 4.0;  // consistent ratio, wrong count
  EXPECT_FAIL(e2e::check_probability_counts(bad));

  std::vector<const Array2D<double>*> members;
  for (const auto& t : s.tigs) members.push_back(&t);
  EXPECT_PASS(e2e::check_probability_extremes(s.grid, members));
  // A re-run member that burned a probability-0 cell...
  Array2D<double> burned_more = s.tigs[0];
  burned_more(4, 3) = 1.0;
  members[0] = &burned_more;
  EXPECT_FAIL(e2e::check_probability_extremes(s.grid, members));
  // ...or missed a probability-1 cell.
  Array2D<double> burned_less = s.tigs[0];
  burned_less(0, 2) = kInf;
  members[0] = &burned_less;
  EXPECT_FAIL(e2e::check_probability_extremes(s.grid, members));

  EXPECT_PASS(e2e::check_same_product(s.grid, s.grid));
  bad = s.grid;
  bad.arrivals.back() = 1.0;
  EXPECT_FAIL(e2e::check_same_product(s.grid, bad));
}

void divergence_and_monotonicity() {
  EXPECT_PASS(e2e::check_divergence(9e-7, 1e-6, 3));
  EXPECT_FAIL(e2e::check_divergence(1.5e-6, 1e-6, 3));  // residual above tol
  EXPECT_FAIL(e2e::check_divergence(1e-6, 1e-6, 3));    // "under" is strict
  EXPECT_FAIL(e2e::check_divergence(std::nan(""), 1e-6, 3));
  EXPECT_PASS(e2e::check_nondecreasing("area", {1, 1, 2, 5}));
  EXPECT_FAIL(e2e::check_nondecreasing("area", {1, 2, 1.999, 5}));
}

void finite_state() {
  Array2D<double> psi = ramp(4, 4, 1.0), tig(4, 4, kInf);
  EXPECT_PASS(e2e::check_finite_state(psi, tig));
  psi(1, 2) = std::nan("");
  EXPECT_FAIL(e2e::check_finite_state(psi, tig));
  psi = ramp(4, 4, 1.0);
  tig(3, 3) = std::nan("");
  EXPECT_FAIL(e2e::check_finite_state(psi, tig));
}

void centroid_error() {
  const wfire::grid::Grid2D g(11, 11, 6.0, 6.0);
  Array2D<double> truth(11, 11, 1.0), a(11, 11, 1.0), b(11, 11, 1.0),
      none(11, 11, 1.0);
  truth(5, 5) = -1;  // centroid (30, 30)
  a(2, 5) = -1;      // (12, 30): 18 m away
  b(5, 9) = -1;      // (30, 54) and (30, 6): centroid (30, 30), 0 m away
  b(5, 1) = -1;
  EXPECT(std::abs(e2e::mean_centroid_error(g, {&a}, truth) - 18.0) < 1e-12);
  EXPECT(std::abs(e2e::mean_centroid_error(g, {&a, &b}, truth) - 9.0) < 1e-12);
  // Members without a burning region are skipped, as in the cycle's own.
  EXPECT(std::abs(e2e::mean_centroid_error(g, {&a, &none}, truth) - 18.0) < 1e-12);
  EXPECT(std::isinf(e2e::mean_centroid_error(g, {&none}, truth)));
}

void percentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // 1..100, unsorted
  EXPECT(e2e::percentile(v, 50) == 50);
  EXPECT(e2e::percentile(v, 98) == 98);
  EXPECT(e2e::percentile(v, 99.5) == 100);
  EXPECT(e2e::percentile(v, 100) == 100);
  EXPECT(e2e::percentile({7}, 1) == 7);
  EXPECT(e2e::median({3, 1, 2}) == 2);
  EXPECT(e2e::median({4, 1, 3, 2}) == 2.5);
  EXPECT(e2e::mean({1, 2, 6}) == 3);

  // Tail selection: the highest ladder percentile with >= 10 samples beyond.
  EXPECT(!e2e::tail_percentile(39).has_value());  // too few for any tail
  EXPECT(e2e::tail_percentile(40).value_or(0) == 50);
  EXPECT(e2e::tail_percentile(100).value_or(0) == 90);   // p95 leaves 5
  EXPECT(e2e::tail_percentile(200).value_or(0) == 95);   // p95 leaves 10
  EXPECT(e2e::tail_percentile(800).value_or(0) == 98);   // p99 leaves 8
  EXPECT(e2e::tail_percentile(1000).value_or(0) == 99);  // p99 leaves 10
  EXPECT(e2e::tail_percentile(20000).value_or(0) == 99.9);
  // The chosen percentile really leaves >= 10 samples above it.
  std::vector<double> w;
  for (int i = 0; i < 800; ++i) w.push_back(i);
  const double p = e2e::tail_percentile(800).value_or(0);
  const double cut = e2e::percentile(w, p);
  long beyond = 0;
  for (double x : w) beyond += x > cut;
  EXPECT(beyond >= 10);
}

void trace_export() {
  e2e::Tracer off(false);
  EXPECT(off.begin("x") == 0);
  EXPECT(off.span_count() == 0);

  e2e::Tracer t(true);
  {
    e2e::Span outer(t, "outer");
    e2e::Span inner(t, "inner", outer.id());
    EXPECT(inner.stop() >= 0);
  }
  const e2e::Clock::time_point a = e2e::Clock::now();
  t.add("given", a, a + std::chrono::milliseconds(2));
  EXPECT(t.span_count() == 3);
  const std::string json = t.chrome_json("{\"k\":1}");
  EXPECT(json.find("\"otherData\":{\"k\":1}") != std::string::npos);
  EXPECT(json.find("\"name\":\"inner\",\"ph\":\"X\"") != std::string::npos);
  EXPECT(json.find("\"args\":{\"id\":2,\"parent\":1}") != std::string::npos);
}

}  // namespace

int main() {
  replayed_scenario_flipped_cell();
  member_arrival_slot_altered();
  probability_checks();
  divergence_and_monotonicity();
  finite_state();
  centroid_error();
  percentiles();
  trace_export();
  if (g_failures == 0) std::printf("e2ebench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
