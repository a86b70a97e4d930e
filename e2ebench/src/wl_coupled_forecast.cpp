// Workload `coupled_forecast`: the paper's Fig. 1 two-way coupled
// fire-atmosphere forecast. Two line ignitions and one circle ignition
// (positions jittered by --seed) burn under a seeded ambient wind on the
// 6 m fire mesh beneath a 16x16x8 atmosphere at 60 m. One round is a fresh
// model stepped kForecastSeconds ahead at dt = 0.5 s; the run repeats whole
// rounds until --seconds have passed. Each coupled step is one operation;
// the request whose wall time is reported is one whole forecast. Set-up
// includes kWarmupSteps untimed steps of a throwaway model.
#include <memory>

#include "checks.h"
#include "coupling/coupled.h"
#include "stats.h"
#include "util/rng.h"
#include "workload.h"

namespace e2e {

using namespace wfire;

namespace {

constexpr double kForecastSeconds = 360.0;
constexpr double kDt = 0.5;
constexpr int kWarmupSteps = 60;

struct Forecast {
  double wind = 3.0;
  double jitter_x[3] = {}, jitter_y[3] = {};
};

Forecast make_forecast(util::Rng& rng) {
  Forecast f;
  f.wind = rng.uniform(2.5, 3.5);
  for (int s = 0; s < 3; ++s) {
    f.jitter_x[s] = rng.uniform(-20.0, 20.0);
    f.jitter_y[s] = rng.uniform(-20.0, 20.0);
  }
  return f;
}

std::unique_ptr<coupling::CoupledModel> make_model(const Forecast& f) {
  const grid::Grid3D atmos_grid(16, 16, 8, 60.0, 60.0, 60.0);
  atmos::AmbientProfile ambient;
  ambient.wind_u = f.wind;
  coupling::CoupledOptions opt;
  opt.refine = 10;
  auto model = std::make_unique<coupling::CoupledModel>(
      atmos_grid, ambient, fire::kFuelShortGrass, opt);
  const double domain = atmos_grid.nx * atmos_grid.dx;
  const double cx = 0.35 * domain;
  const double* jx = f.jitter_x;
  const double* jy = f.jitter_y;
  model->ignite({
      levelset::Ignition{levelset::LineIgnition{
          cx - 80 + jx[0], 0.38 * domain + jy[0], cx + 40 + jx[0],
          0.38 * domain + jy[0], 8.0, 0.0}},
      levelset::Ignition{levelset::LineIgnition{
          cx - 80 + jx[1], 0.62 * domain + jy[1], cx + 40 + jx[1],
          0.62 * domain + jy[1], 8.0, 0.0}},
      levelset::Ignition{levelset::CircleIgnition{
          cx + jx[2], 0.5 * domain + jy[2], 25.0, 0.0}},
  });
  return model;
}

}  // namespace

Outcome run_coupled_forecast(const RunArgs& args, Tracer& tracer) {
  Outcome out;
  Span setup_span(tracer, "setup");
  util::Rng rng(args.seed);
  Forecast forecast = make_forecast(rng);
  coupling::CoupledStepInfo info;
  {
    const std::unique_ptr<coupling::CoupledModel> warmup = make_model(forecast);
    for (int s = 0; s < kWarmupSteps; ++s) warmup->step(kDt, info);
  }
  std::unique_ptr<coupling::CoupledModel> model = make_model(forecast);
  setup_span.stop();
  out.setup_s = seconds_between(args.process_start, Clock::now());

  const double tol = atmos::WrfLiteOptions{}.projection_tol;
  const int steps = static_cast<int>(kForecastSeconds / kDt);
  std::vector<double> mg_cycles;
  double wall = 0;
  const Clock::time_point t0 = Clock::now();
  for (int round = 0; seconds_between(t0, Clock::now()) < args.seconds; ++round) {
    if (round > 0) {
      forecast = make_forecast(rng);
      model = make_model(forecast);
    }
    std::vector<double> burned;
    burned.reserve(static_cast<std::size_t>(steps));
    std::string div_error;  // first step whose projection missed tol
    double fc_wall = 0;  // stepping time, without the checks' bookkeeping
    const double cpu_before = process_cpu_seconds();
    Span fc(tracer, "coupling.forecast");
    for (int s = 0; s < steps; ++s) {
      Span st(tracer, "coupling.step", fc.id());
      model->step(kDt, info);
      fc_wall += st.stop();
      ++out.attempted;
      mg_cycles.push_back(info.atmos.mg_cycles);
      burned.push_back(model->fire_model().burned_area());
      if (div_error.empty())
        div_error = check_divergence(info.atmos.max_div_after, tol, s);
    }
    fc.stop();
    wall += fc_wall;
    out.request_cpu_s += process_cpu_seconds() - cpu_before;
    out.request_s.push_back(fc_wall);

    // Correctness: the projection met its tolerance at every step, and the
    // burned area never shrank.
    out.check_error(div_error);
    out.check_error(check_nondecreasing("burned area", burned));
    out.check(burned.back() > burned.front(), "the fire did not spread");
  }

  out.notes = {{"sim_per_wall", kForecastSeconds / median(out.request_s),
                "sim-s/s"}};
  if (tracer.enabled()) {
    out.per_layer = {{"coupling.steps_per_s", static_cast<double>(mg_cycles.size()) / wall},
                     {"atmos.mg_cycles", mean(mg_cycles)},
                     {"par.cpu_per_wall", out.request_cpu_s / wall}};
  }
  return out;
}

}  // namespace e2e
