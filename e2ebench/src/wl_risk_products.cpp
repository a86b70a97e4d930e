// Workload `risk_products`: one client fetches a seeded sequence of K = 64
// burn-probability products through one risk::ProductCache.
//
// A round fetches three new products, one small (41x41 nodes, horizon 60 s:
// every member is small enough for inline admission) and two large (61x61,
// horizon 120 s: every member is pooled), and between them kHitsPerMiss
// repeat fetches of products still in the cache. Each fetch is one
// operation; the request whose wall time is reported is a fetch that runs
// a sweep. Every product comes with a noise-free reference burn from a
// truth fire under the true wind; the product's base spec overestimates the
// wind speed by kWindBias, as an analyst's forecast might. Set-up includes
// one untimed fetch of a small product.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "checks.h"
#include "core/data_pool.h"
#include "risk/product_cache.h"
#include "risk/sweep.h"
#include "stats.h"
#include "util/rng.h"
#include "workload.h"

namespace e2e {

using namespace wfire;

namespace {

constexpr int kMembers = 64;
constexpr int kCacheCapacity = 8;
// Repeats go to the kRepeatWindow most recently fetched new products. With
// capacity C, a product among the last W new ones stays cached while
// C >= 2W - 1 (at most W - 1 later misses evict, and at most W - 1 older
// products are refreshed past it), so every repeat is a hit.
constexpr int kRepeatWindow = 4;
constexpr int kHitsPerMiss = 100;
constexpr int kRerunMembers = 4;      // members re-run alone per product
constexpr double kWindSpeed = 2.5;    // [m/s] truth
constexpr double kWindBias = 0.35;    // [m/s] forecast overestimate
constexpr double kThreshold = 0.5;    // probability cut for risk::score

static_assert(kCacheCapacity >= 2 * kRepeatWindow - 1,
              "every repeat fetch must be a hit");

struct Size {
  const char* name;
  int n;
  double horizon;
};
constexpr Size kSmall{"small", 41, 60.0};
constexpr Size kLarge{"large", 61, 120.0};
constexpr const Size* kRound[] = {&kSmall, &kLarge, &kLarge};

struct Product {
  const Size* size = nullptr;
  serve::ScenarioSpec base;
  risk::PerturbationSpec pert;
  risk::SweepOptions opt;
  double truth_u = 0, truth_v = 0;
};

Product make_product(const Size& size, util::Rng& rng) {
  Product p;
  p.size = &size;
  const double extent = (size.n - 1) * 6.0;
  // Products differ in wind direction, ignition point and perturbation
  // seed; wind speed and bias are fixed, so every product poses the same
  // forecasting problem and their skill scores are comparable.
  const double dir = rng.uniform(0.0, 6.283185307179586);
  p.truth_u = kWindSpeed * std::cos(dir);
  p.truth_v = kWindSpeed * std::sin(dir);
  p.base.nx = p.base.ny = size.n;
  p.base.dx = p.base.dy = 6.0;
  p.base.dt = 0.5;
  p.base.wind_u = (kWindSpeed + kWindBias) * std::cos(dir);
  p.base.wind_v = (kWindSpeed + kWindBias) * std::sin(dir);
  p.base.ignitions = {levelset::Ignition{levelset::CircleIgnition{
      rng.uniform(0.4, 0.6) * extent, rng.uniform(0.4, 0.6) * extent, 20.0,
      0.0}}};
  p.pert.wind_speed_sigma = 0.4;
  p.pert.wind_dir_sigma = 0.15;
  p.pert.moisture_sigma = 0.1;
  p.pert.burn_time_sigma = 0.1;
  p.pert.ignition_jitter = 3.0;
  p.pert.seed = rng.next_u64();
  p.opt.members = kMembers;
  p.opt.horizon = size.horizon;
  return p;
}

// Noise-free reference burn: the same ignition under the unbiased wind.
util::Array2D<double> reference_tig(const Product& p) {
  const grid::Grid2D g(p.base.nx, p.base.ny, p.base.dx, p.base.dy);
  auto truth = std::make_unique<fire::FireModel>(
      g, fire::uniform_fuel(g.nx, g.ny, p.base.fuel_category),
      fire::terrain_flat(g));
  truth->ignite(p.base.ignitions);
  core::DataPoolOptions dopt;
  dopt.wind_u = p.truth_u;
  dopt.wind_v = p.truth_v;
  core::DataPool pool(std::move(truth), dopt, util::Rng(1));
  (void)pool.observe_at(p.opt.horizon);
  return *pool.truth_tig();
}

// Member k re-run alone on a fresh one-thread server.
util::Array2D<double> rerun_member(const Product& p, int k) {
  serve::ServerOptions sopt;
  sopt.threads = 1;
  serve::ScenarioServer solo(sopt);
  const serve::ScenarioId id = solo.admit(risk::perturb_member(p.base, p.pert, k));
  solo.request_advance(id, p.opt.horizon);
  solo.wait(id);
  return solo.state(id).tig;
}

double cell_steps(const Product& p) {
  return static_cast<double>(kMembers) * p.base.nx * p.base.ny *
         std::ceil(p.opt.horizon / p.base.dt);
}

void check_product(const Product& p, const risk::BurnProbabilityGrid& grid,
                   util::Rng& rng, Outcome& out) {
  out.check_error(check_probability_counts(grid));
  std::vector<util::Array2D<double>> tigs;
  for (int r = 0; r < kRerunMembers; ++r) {
    const int k = static_cast<int>(rng.uniform_int(kMembers));
    tigs.push_back(rerun_member(p, k));
    out.check_error(check_arrival_slots(grid, k, tigs.back()));
  }
  std::vector<const util::Array2D<double>*> ptrs;
  for (const auto& t : tigs) ptrs.push_back(&t);
  out.check_error(check_probability_extremes(grid, ptrs));
}

}  // namespace

Outcome run_risk_products(const RunArgs& args, Tracer& tracer) {
  Outcome out;
  util::Rng rng(args.seed);
  util::Rng check_rng(args.seed ^ 0xc4ec4ec4ULL);
  risk::ProductCache cache(kCacheCapacity);
  std::vector<Product> products;
  std::vector<double> f1;
  // Correctness and skill of a fetched product, outside the timed fetches.
  const auto check_and_score = [&](const Product& p,
                                   const risk::BurnProbabilityGrid& grid) {
    check_product(p, grid, check_rng, out);
    const util::Array2D<double> ref = reference_tig(p);
    f1.push_back(risk::score(grid, kThreshold, ref, p.opt.horizon).f1);
  };

  Span setup_span(tracer, "setup");
  products.push_back(make_product(kSmall, rng));
  const auto warmup = cache.fetch(products.back().base, products.back().pert,
                                  products.back().opt);
  setup_span.stop();
  out.setup_s = seconds_between(args.process_start, Clock::now());
  check_and_score(products.back(), *warmup);

  std::vector<double> hit_us;
  double hit_time = 0;
  struct PerSize {
    double cell_steps = 0, time = 0;
  } small_sweeps, large_sweeps;
  const Clock::time_point t0 = Clock::now();
  while (seconds_between(t0, Clock::now()) < args.seconds) {
    for (const Size* size : kRound) {
      products.push_back(make_product(*size, rng));
      const Product& p = products.back();
      const double cpu_before = process_cpu_seconds();
      Span s(tracer, "risk.fetch_miss");
      const auto grid = cache.fetch(p.base, p.pert, p.opt);
      const double dt = s.stop();
      out.request_cpu_s += process_cpu_seconds() - cpu_before;
      ++out.attempted;
      out.request_s.push_back(dt);
      PerSize& ps = size == &kSmall ? small_sweeps : large_sweeps;
      ps.cell_steps += cell_steps(p);
      ps.time += dt;

      // Repeat fetches of recent products, all still cached.
      const std::size_t window =
          std::min<std::size_t>(products.size(), kRepeatWindow);
      for (int h = 0; h < kHitsPerMiss; ++h) {
        const Product& q =
            products[products.size() - 1 - rng.uniform_int(window)];
        Span hs(tracer, "risk.fetch_hit");
        const auto again = cache.fetch(q.base, q.pert, q.opt);
        const double ht = hs.stop();
        hit_us.push_back(1e6 * ht);
        hit_time += ht;
        ++out.attempted;
        if (&q == &p) out.check_error(check_same_product(*grid, *again));
      }
      check_and_score(p, *grid);
    }
  }
  out.check(cache.sweeps_run() == static_cast<long>(products.size()),
            "cache ran " + std::to_string(cache.sweeps_run()) + " sweeps for " +
                std::to_string(products.size()) + " distinct products");
  out.check(cache.hits() == static_cast<long>(hit_us.size()),
            "cache counted " + std::to_string(cache.hits()) + " hits of " +
                std::to_string(hit_us.size()) + " repeat fetches");

  out.notes = {{"risk_f1", mean(f1), "ratio"},
               {"hit_us", median(hit_us), "us"}};
  if (tracer.enabled()) {
    // Admission split of one sweep per size, straight from a SweepDriver.
    auto split = [&](const Size& size) {
      const Product& p = *std::find_if(products.begin(), products.end(),
                                       [&](const Product& q) { return q.size == &size; });
      risk::SweepDriver driver(p.base, p.pert, p.opt);
      (void)driver.run();
      return std::make_pair(driver.last_inline(), driver.last_pooled());
    };
    const auto small = split(kSmall);
    const auto large = split(kLarge);
    const double miss_time = small_sweeps.time + large_sweeps.time;
    out.per_layer = {
        {"risk.small.cell_steps_per_s", small_sweeps.cell_steps / small_sweeps.time},
        {"risk.large.cell_steps_per_s", large_sweeps.cell_steps / large_sweeps.time},
        {"risk.small.inline_members", static_cast<double>(small.first)},
        {"risk.small.pooled_members", static_cast<double>(small.second)},
        {"risk.large.inline_members", static_cast<double>(large.first)},
        {"risk.large.pooled_members", static_cast<double>(large.second)},
        {"risk.hits_per_s", static_cast<double>(hit_us.size()) / hit_time},
        {"risk.hits", static_cast<double>(cache.hits())},
        {"risk.misses", static_cast<double>(cache.misses())},
        {"risk.sweeps_run", static_cast<double>(cache.sweeps_run())},
        {"par.cpu_per_wall", out.request_cpu_s / miss_time},
    };
  }
  return out;
}

}  // namespace e2e
