// Workload `assimilate`: the paper's Fig. 2 cycle as a forecaster runs it.
//
// 25 members on the 101x101, 6 m fire mesh run the morphing EnKF against a
// DataPool twin truth whose ignition sits 60 m from the ensemble's. One
// round is a fresh ensemble cycled kCycles times, one observation every
// 30 s of simulated time; the run repeats whole rounds until --seconds have
// passed. Each cycle (advance_to + assimilate) is one operation.
//
// Inputs do not depend on --seed. The cycled morphing EnKF diverges (the
// analysis raises the position error from the third cycle on), and a cycle
// whose analysis raises the mean position error by more than
// kFailMarginMeters counts as failed. Keeping the inputs fixed keeps that
// failed share identical in every run, so a change that mends the
// divergence shows as a moved count rather than as noise.
#include <cmath>
#include <cstdio>
#include <memory>

#include "checks.h"
#include "core/cycle.h"
#include "core/data_pool.h"
#include "morphing/registration.h"
#include "obs/obs_function.h"
#include "stats.h"
#include "util/omp_compat.h"
#include "workload.h"

namespace e2e {

using namespace wfire;

namespace {

constexpr int kGridN = 101;
constexpr double kDx = 6.0;
constexpr int kMembers = 25;
constexpr int kCycles = 8;
constexpr double kObsInterval = 30.0;     // [s] simulated
constexpr double kTruthX = 330.0, kEnsembleX = 270.0, kY = 300.0;
constexpr double kIgnitionR = 25.0;
constexpr double kWindU = 2.0;
constexpr double kNoiseStd = 1500.0;      // [W/m^2]
constexpr std::uint64_t kTruthSeed = 7, kEnsembleSeed = 22;
constexpr double kFailMarginMeters = 10.0;

struct Observation {
  core::ObservationImage image;
  util::Array2D<double> truth_psi;
};

core::CycleOptions cycle_options() {
  core::CycleOptions opt;
  opt.members = kMembers;
  opt.wind_u = kWindU;
  opt.ignition_jitter = 20.0;
  opt.morph.sigma_r = 50.0;
  opt.morph.sigma_T = 0.5;
  return opt;
}

std::vector<Observation> make_observations(const grid::Grid2D& g) {
  auto truth = std::make_unique<fire::FireModel>(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g));
  truth->ignite({levelset::Ignition{
      levelset::CircleIgnition{kTruthX, kY, kIgnitionR, 0.0}}});
  core::DataPoolOptions dopt;
  dopt.noise_std = kNoiseStd;
  dopt.wind_u = kWindU;
  core::DataPool pool(std::move(truth), dopt, util::Rng(kTruthSeed));
  std::vector<Observation> out;
  for (int c = 1; c <= kCycles; ++c) {
    Observation o;
    o.image = pool.observe_at(c * kObsInterval);
    o.truth_psi = *pool.truth_psi();
    out.push_back(std::move(o));
  }
  return out;
}

std::unique_ptr<core::AssimilationCycle> make_cycle(const grid::Grid2D& g) {
  auto cycle = std::make_unique<core::AssimilationCycle>(
      g, fire::uniform_fuel(g.nx, g.ny, fire::kFuelShortGrass),
      fire::terrain_flat(g), fire::FireModelOptions{}, cycle_options(),
      kEnsembleSeed);
  cycle->initialize({levelset::Ignition{
      levelset::CircleIgnition{kEnsembleX, kY, kIgnitionR, 0.0}}});
  return cycle;
}

// Each member's forecast ignition times, taken between advance_to and
// assimilate: the states the analysis registers.
struct Forecast {
  std::vector<util::Array2D<double>> tig;
  double time = 0;
};

Forecast snapshot_forecast(const core::AssimilationCycle& cycle) {
  Forecast f;
  for (int k = 0; k < cycle.members(); ++k)
    f.tig.push_back(cycle.member(k).state().tig);
  f.time = cycle.member(0).state().time;
  return f;
}

// The registration the analysis ran, repeated on its inputs: each member's
// forecast front-distance field (through obs::heat_flux_image and
// obs::front_distance_field) registered against the ensemble mean of those
// fields, in a member-parallel loop like MorphingEnKF::analyze's, so each
// call sees the same thread count as in the analysis. Traced runs only,
// after the timed cycle. Returns the wall time of the parallel loop.
double probe_registration(const core::AssimilationCycle& cycle,
                          const core::CycleOptions& opt, const Forecast& fc,
                          Tracer& tracer, std::vector<double>& iters) {
  const grid::Grid2D& g = cycle.grid();
  const auto n = static_cast<std::size_t>(cycle.members());
  std::vector<util::Array2D<double>> fields;
  for (std::size_t k = 0; k < n; ++k)
    fields.push_back(obs::front_distance_field(
        obs::heat_flux_image(cycle.member(static_cast<int>(k)).fuel(),
                             fc.tig[k], fc.time),
        g, opt.front_flux_threshold));
  util::Array2D<double> mean(g.nx, g.ny, 0.0);
  for (const auto& f : fields)
    for (std::size_t c = 0; c < f.size(); ++c) mean.data()[c] += f.data()[c];
  const double inv = 1.0 / static_cast<double>(n);
  for (double& v : mean) v *= inv;
  std::vector<double> it(n);
  Span loop(tracer, "morphing.register_all");
WFIRE_PRAGMA_OMP(omp parallel for schedule(dynamic))
  for (std::size_t k = 0; k < n; ++k) {
    Span s(tracer, "morphing.register_fields", loop.id());
    it[k] = morphing::register_fields(fields[k], mean, opt.morph.reg).iterations;
  }
  iters.insert(iters.end(), it.begin(), it.end());
  return loop.stop();
}

}  // namespace

Outcome run_assimilate(const RunArgs& args, Tracer& tracer) {
  Outcome out;
  const grid::Grid2D g(kGridN, kGridN, kDx, kDx);
  const core::CycleOptions copt = cycle_options();

  // Set-up: observations (data acquisition, never charged to a cycle) and
  // the first ensemble.
  Span setup_span(tracer, "setup");
  const std::vector<Observation> obs = make_observations(g);
  std::unique_ptr<core::AssimilationCycle> cycle = make_cycle(g);
  setup_span.stop();
  out.setup_s = seconds_between(args.process_start, Clock::now());

  std::vector<double> post_error, reg_iters, obs_rows, state_rows;
  // Sums over the timed cycles [s].
  double cycle_wall = 0, advance_wall = 0, obsfn_wall = 0, analysis_wall = 0,
         update_wall = 0, register_wall = 0;
  const Clock::time_point t0 = Clock::now();
  int round = 0;
  while (seconds_between(t0, Clock::now()) < args.seconds) {
    if (round > 0) cycle = make_cycle(g);  // whole rounds: a fresh ensemble
    ++round;
    for (int c = 0; c < kCycles; ++c) {
      const Observation& o = obs[static_cast<std::size_t>(c)];
      cycle->runner().clear_timings();
      // The cycle is the two timed calls; what runs between them (the error
      // before the analysis, the traced run's snapshot) is charged to
      // neither wall nor CPU time.
      Span cyc(tracer, "core.cycle");
      double cpu = process_cpu_seconds();
      double advance_s = 0, assimilate_s = 0;
      {
        Span s(tracer, "core.advance_to", cyc.id());
        cycle->advance_to(o.image.time);
        advance_s = s.stop();
      }
      out.request_cpu_s += process_cpu_seconds() - cpu;
      const double before = cycle->mean_position_error(o.truth_psi);
      Forecast forecast;
      if (tracer.enabled()) forecast = snapshot_forecast(*cycle);
      cpu = process_cpu_seconds();
      core::AnalysisResult res;
      {
        Span s(tracer, "core.assimilate", cyc.id());
        res = cycle->assimilate(o.image);
        assimilate_s = s.stop();
      }
      out.request_cpu_s += process_cpu_seconds() - cpu;
      cyc.stop();
      out.request_s.push_back(advance_s + assimilate_s);
      cycle_wall += advance_s + assimilate_s;
      advance_wall += advance_s;
      ++out.attempted;

      for (const par::PhaseTiming& p : cycle->runner().timings()) {
        if (p.name == "obs_function") obsfn_wall += p.seconds;
        if (p.name == "enkf") analysis_wall += p.seconds;
        if (p.name == "state_update") update_wall += p.seconds;
      }
      obs_rows.push_back(res.enkf.m);
      state_rows.push_back(res.enkf.n);

      // Correctness: finite member states, an independently computed
      // centroid error that agrees with the cycle's own, and an analysis
      // that cuts the error on the first cycle of every round.
      std::vector<const util::Array2D<double>*> psis;
      for (int k = 0; k < cycle->members(); ++k) {
        const fire::FireState& st = cycle->member(k).state();
        out.check_error(check_finite_state(st.psi, st.tig));
        psis.push_back(&st.psi);
      }
      const double after = cycle->mean_position_error(o.truth_psi);
      const double own = mean_centroid_error(g, psis, o.truth_psi);
      out.check(std::abs(own - after) <= 1e-9 * std::max(1.0, after),
                "assimilate: centroid error " + std::to_string(own) +
                    " != mean_position_error " + std::to_string(after));
      if (c == 0)
        out.check(after < before,
                  "assimilate: first analysis did not cut the error (" +
                      std::to_string(before) + " -> " +
                      std::to_string(after) + " m)");
      if (after - before > kFailMarginMeters) ++out.failed;
      post_error.push_back(after);
      std::fprintf(stderr,
                   "assimilate: round %d cycle %d %.3f s error %.2f -> %.2f m "
                   "spread %.4g\n",
                   round, c + 1, out.request_s.back(), before, after,
                   cycle->state_spread());

      // Per-layer probe, outside the timed cycle.
      if (tracer.enabled())
        register_wall +=
            probe_registration(*cycle, copt, forecast, tracer, reg_iters);
    }
  }

  out.notes = {{"analysis_error_m", mean(post_error), "m"}};
  if (tracer.enabled()) {
    out.per_layer = {
        {"core.advance_share", advance_wall / cycle_wall},
        {"core.obs_function_share", obsfn_wall / cycle_wall},
        {"core.analysis_share", analysis_wall / cycle_wall},
        {"core.state_update_share", update_wall / cycle_wall},
        {"morphing.register_share", register_wall / cycle_wall},
        {"morphing.register_iters", median(reg_iters)},
        {"enkf.obs_rows", median(obs_rows)},
        {"enkf.state_rows", median(state_rows)},
        {"par.cpu_per_wall", out.request_cpu_s / cycle_wall},
    };
  }
  return out;
}

}  // namespace e2e
