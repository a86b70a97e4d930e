// Workload `serve_fleet`: an open loop of independent clients against one
// serve::ScenarioServer holding a mixed fleet.
//
// kScenarios scenarios, a quarter each on grids of 41, 61, 81 and 101
// nodes, with seeded winds and ignitions. One generator thread replays a
// schedule drawn in advance from --seed: Poisson-timed request_advance calls
// (short ones admitted inline, long ones pooled), request_ignite writes,
// status reads and on-demand checkpoints; the server also writes periodic
// checkpoints. Each scheduled call is one operation; the request whose
// latency is reported is an advance, timed from its due time to the
// completion hook that follows its target, so a stalled generator is
// charged to the requests it delayed. Set-up admits the fleet and advances
// every scenario once by a long (pooled) request, untimed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>
#include <unistd.h>

#include "checks.h"
#include "serve/scenario_server.h"
#include "stats.h"
#include "util/omp_compat.h"
#include "util/rng.h"
#include "workload.h"

namespace e2e {

using namespace wfire;

namespace {

constexpr int kScenarios = 24;
constexpr int kSizes[] = {41, 61, 81, 101};
constexpr double kAdvanceRate = 30.0;     // [1/s]
constexpr double kStatusRate = 20.0;      // [1/s]
constexpr double kIgniteRate = 2.0;       // [1/s]
constexpr double kCheckpointRate = 0.5;   // [1/s] on-demand checkpoints
constexpr double kCheckpointInterval = 600.0;  // [sim s] periodic
// Advance lengths are set per grid so that every request of a class costs
// about the same cell-steps on any grid: short requests (1e5) sit below the
// server's default inline threshold (2.5e5) and run on the caller thread,
// long ones (5e5) are pooled. Every kLongEvery-th advance is long. Fixed
// costs per class keep the latency distribution two separate clusters
// instead of a smear across grid sizes, and the fixed long share (4%)
// keeps the median inside the short cluster.
constexpr double kShortCells = 1e5, kLongCells = 5e5;
constexpr int kLongEvery = 25;
constexpr int kReplayed = 4;              // scenarios replayed alone

enum class Kind { kAdvance, kIgnite, kStatus, kCheckpoint };

struct Event {
  double due = 0;  // [s] after the traffic starts
  Kind kind = Kind::kAdvance;
  int scenario = 0;
  double until = 0;              // kAdvance: absolute sim target
  levelset::Ignition ignition;   // kIgnite
};

// Requests of one scenario waiting for the completion hook that passes
// their target. Targets of one scenario only grow, so a hook completes a
// prefix of the queue.
struct Track {
  std::mutex mu;
  std::deque<std::pair<double, Clock::time_point>> pending;  // until, due
  std::vector<double> latency_s;
  long completed = 0;
};

serve::ScenarioSpec make_spec(int k, util::Rng& rng) {
  serve::ScenarioSpec spec;
  spec.nx = spec.ny = kSizes[k % 4];
  spec.dx = spec.dy = 6.0;
  spec.dt = 0.5;
  const double speed = rng.uniform(2.0, 4.0);
  const double dir = rng.uniform(0.0, 6.283185307179586);
  spec.wind_u = speed * std::cos(dir);
  spec.wind_v = speed * std::sin(dir);
  spec.wind_jitter = 0.3;
  spec.seed = rng.next_u64();
  const double extent = (spec.nx - 1) * spec.dx;
  spec.ignitions = {levelset::Ignition{levelset::CircleIgnition{
      rng.uniform(0.3, 0.7) * extent, rng.uniform(0.3, 0.7) * extent,
      rng.uniform(10.0, 20.0), 0.0}}};
  return spec;
}

// Simulated time a request of `cells` cell-steps advances scenario `spec`.
double advance_length(const serve::ScenarioSpec& spec, double cells) {
  return std::round(cells / (static_cast<double>(spec.nx) * spec.ny)) * spec.dt;
}

// The whole request schedule for `seconds` of traffic, in due order, for
// scenarios that start at simulated times `target`.
std::vector<Event> make_schedule(const std::vector<serve::ScenarioSpec>& specs,
                                 std::vector<double> target, double seconds,
                                 util::Rng& rng) {
  std::vector<Event> ev;
  auto poisson = [&](double rate, Kind kind) {
    for (double t = -std::log(1.0 - rng.uniform()) / rate; t < seconds;
         t += -std::log(1.0 - rng.uniform()) / rate) {
      Event e;
      e.due = t;
      e.kind = kind;
      e.scenario = static_cast<int>(rng.uniform_int(specs.size()));
      ev.push_back(e);
    }
  };
  poisson(kAdvanceRate, Kind::kAdvance);
  poisson(kStatusRate, Kind::kStatus);
  poisson(kIgniteRate, Kind::kIgnite);
  poisson(kCheckpointRate, Kind::kCheckpoint);
  std::stable_sort(ev.begin(), ev.end(),
                   [](const Event& a, const Event& b) { return a.due < b.due; });
  // Targets and ignitions in due order: each advance extends its scenario's
  // last target; each ignition lights just after that target, so it is
  // always queued before the scenario reaches its time (solo-equivalent).
  long advances = 0;
  for (Event& e : ev) {
    const auto s = static_cast<std::size_t>(e.scenario);
    if (e.kind == Kind::kAdvance) {
      target[s] += advance_length(
          specs[s], ++advances % kLongEvery == 0 ? kLongCells : kShortCells);
      e.until = target[s];
    } else if (e.kind == Kind::kIgnite) {
      const double extent = (specs[s].nx - 1) * specs[s].dx;
      e.ignition = levelset::CircleIgnition{
          rng.uniform(0.1, 0.9) * extent, rng.uniform(0.1, 0.9) * extent,
          rng.uniform(8.0, 15.0), target[s] + rng.uniform(0.5, 10.0)};
    }
  }
  return ev;
}

}  // namespace

Outcome run_serve_fleet(const RunArgs& args, Tracer& tracer) {
  Outcome out;
  const std::string ckpt_dir =
      args.work_dir + "/serve-ckpt-" + std::to_string(::getpid());
  std::filesystem::remove_all(ckpt_dir);

  // Threads: the server's default pool, one worker per core with each
  // pooled job at one OpenMP thread, plus the generator thread, which admits
  // and runs inline advances at one OpenMP thread too. Left at OpenMP's
  // default team, inline advances would overlap pooled ones with up to
  // about 2 x nproc runnable threads, and admission's parallel regions hit
  // the spin-wait stall (CHANGES.md) that made setup_s read 0.012 s or
  // 0.5 s from one back-to-back run to the next.
  const util::ScopedOmpNumThreads serial_generator(1);

  // --- Set-up: the fleet, its schedule, admission and a warm-up advance.
  Span setup_span(tracer, "setup");
  util::Rng rng(args.seed);
  std::vector<serve::ScenarioSpec> specs;
  std::vector<double> final_target;  // per scenario, absolute sim time
  for (int k = 0; k < kScenarios; ++k) {
    specs.push_back(make_spec(k, rng));
    final_target.push_back(advance_length(specs.back(), kLongCells));
  }
  const std::vector<Event> schedule =
      make_schedule(specs, final_target, args.seconds, rng);

  serve::ServerOptions sopt;
  sopt.checkpoint_dir = ckpt_dir;
  sopt.checkpoint_interval = kCheckpointInterval;
  auto server = std::make_unique<serve::ScenarioServer>(sopt);
  std::vector<std::unique_ptr<Track>> tracks;
  double admit_time = 0;
  for (int k = 0; k < kScenarios; ++k) {
    Span s(tracer, "serve.admit", setup_span.id());
    const serve::ScenarioId id = server->admit(specs[static_cast<std::size_t>(k)]);
    admit_time += s.stop();
    tracks.push_back(std::make_unique<Track>());
    tracks.back()->latency_s.reserve(schedule.size());
    Track* tr = tracks.back().get();
    server->set_completion_hook(
        id, [tr, &tracer](serve::ScenarioId, const fire::FireState& st) {
          const Clock::time_point now = Clock::now();
          std::lock_guard<std::mutex> lock(tr->mu);
          while (!tr->pending.empty() &&
                 tr->pending.front().first <= st.time + 1e-9) {
            const Clock::time_point due = tr->pending.front().second;
            tracer.add("serve.request", due, now);
            tr->latency_s.push_back(seconds_between(due, now));
            tr->pending.pop_front();
            ++tr->completed;
          }
        });
  }
  {
    Span s(tracer, "serve.warmup", setup_span.id());
    for (int k = 0; k < kScenarios; ++k)
      server->request_advance(k, final_target[static_cast<std::size_t>(k)]);
    server->wait_all();
  }
  setup_span.stop();
  out.setup_s = seconds_between(args.process_start, Clock::now());

  // --- Measured part: the generator replays the schedule open-loop.
  std::vector<double> late_s;
  long inline_count = 0, status_count = 0, checkpoint_count = 0;
  double inline_time = 0, status_time = 0, checkpoint_time = 0;
  std::vector<std::vector<double>> burned(kScenarios);
  std::vector<std::vector<levelset::Ignition>> runtime_ignitions(kScenarios);
  long advances = 0;
  const double cpu0 = process_cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  const auto at = [t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  for (const Event& e : schedule) {
    const Clock::time_point due = at(e.due);
    std::this_thread::sleep_until(due);
    late_s.push_back(seconds_between(due, Clock::now()));
    ++out.attempted;
    const auto sc = static_cast<std::size_t>(e.scenario);
    try {
      switch (e.kind) {
        case Kind::kAdvance: {
          {
            std::lock_guard<std::mutex> lock(tracks[sc]->mu);
            tracks[sc]->pending.emplace_back(e.until, due);
          }
          Span s(tracer, "serve.request_advance");
          const bool ran_inline = server->request_advance(e.scenario, e.until);
          const double held = s.stop();
          if (ran_inline) {
            ++inline_count;
            inline_time += held;
          }
          final_target[sc] = e.until;
          ++advances;
          break;
        }
        case Kind::kIgnite: {
          Span s(tracer, "serve.request_ignite");
          server->request_ignite(e.scenario, e.ignition);
          runtime_ignitions[sc].push_back(e.ignition);
          break;
        }
        case Kind::kStatus: {
          Span s(tracer, "serve.status");
          const serve::ScenarioStatus st = server->status(e.scenario);
          ++status_count;
          status_time += s.stop();
          burned[sc].push_back(st.burned_area);
          break;
        }
        case Kind::kCheckpoint: {
          Span s(tracer, "serve.checkpoint_now");
          server->checkpoint_now(e.scenario);
          ++checkpoint_count;
          checkpoint_time += s.stop();
          break;
        }
      }
    } catch (const std::exception& ex) {
      ++out.failed;
      if (e.kind == Kind::kAdvance) {  // never enqueued: not waited for
        std::lock_guard<std::mutex> lock(tracks[sc]->mu);
        tracks[sc]->pending.pop_back();
      }
      std::fprintf(stderr, "serve_fleet: request failed: %s\n", ex.what());
    }
  }
  server->wait_all();
  const double wall = seconds_between(t0, Clock::now());
  out.request_cpu_s = process_cpu_seconds() - cpu0;

  // --- Server-side accounting.
  double busy_s = 0, cell_steps = 0;
  for (int k = 0; k < kScenarios; ++k) {
    const serve::ScenarioStatus st = server->status(k);
    out.check(!st.failed, "scenario " + std::to_string(k) + " failed: " +
                              server->error(k));
    busy_s += st.wall_seconds;
    cell_steps += static_cast<double>(st.steps) * specs[static_cast<std::size_t>(k)].nx *
                  specs[static_cast<std::size_t>(k)].ny;
  }
  const long admissions = server->total_inline() + server->total_pooled();
  const double inline_share =
      admissions > 0 ? static_cast<double>(server->total_inline()) / admissions : 0;

  // --- Correctness.
  long completed = 0;
  for (int k = 0; k < kScenarios; ++k) {
    Track& tr = *tracks[static_cast<std::size_t>(k)];
    std::lock_guard<std::mutex> lock(tr.mu);
    out.check(tr.pending.empty(), "scenario " + std::to_string(k) + ": " +
                                      std::to_string(tr.pending.size()) +
                                      " advance requests never completed");
    completed += tr.completed;
    out.request_s.insert(out.request_s.end(), tr.latency_s.begin(),
                         tr.latency_s.end());
    out.check_error(check_nondecreasing(
        "scenario " + std::to_string(k) + " burned_area",
        burned[static_cast<std::size_t>(k)]));
  }
  out.check(completed == advances, "completed " + std::to_string(completed) +
                                       " of " + std::to_string(advances) +
                                       " advance requests");

  // Final checkpoints (written by shutdown) restore bitwise.
  server->shutdown();
  serve::ServerOptions one_thread;
  one_thread.threads = 1;
  {
    serve::ScenarioServer restored(one_thread);
    for (int k = 0; k < kScenarios; ++k) {
      const serve::ScenarioId id = restored.restore(server->checkpoint_path(k));
      const fire::FireState& live = server->state(k);
      const fire::FireState& back = restored.state(id);
      const std::string tag = "scenario " + std::to_string(k) + " restored ";
      out.check_error(check_bitwise(tag + "psi", live.psi, back.psi));
      out.check_error(check_bitwise(tag + "tig", live.tig, back.tig));
      out.check(live.time == back.time, tag + "time differs");
    }
  }
  // A sample replayed alone on a fresh one-thread server: same spec, same
  // runtime ignitions, one advance to the final target.
  util::Rng pick(args.seed ^ 0x5e7e5e7eULL);
  for (int r = 0; r < kReplayed; ++r) {
    const int k = r + 4 * static_cast<int>(pick.uniform_int(kScenarios / 4));
    const auto sk = static_cast<std::size_t>(k);
    serve::ScenarioServer solo(one_thread);
    const serve::ScenarioId id = solo.admit(specs[sk]);
    for (const levelset::Ignition& ign : runtime_ignitions[sk])
      solo.request_ignite(id, ign);
    if (final_target[sk] > 0) solo.request_advance(id, final_target[sk]);
    solo.wait(id);
    const std::string tag = "scenario " + std::to_string(k) + " replay ";
    out.check_error(check_bitwise(tag + "psi", server->state(k).psi, solo.state(id).psi));
    out.check_error(check_bitwise(tag + "tig", server->state(k).tig, solo.state(id).tig));
  }
  server.reset();
  std::filesystem::remove_all(ckpt_dir);

  // Open-loop figures (notes): the latency tail where the sample allows
  // one, and how late the generator ran against the schedule.
  const std::optional<double> tail_p =
      tail_percentile(static_cast<long>(out.request_s.size()));
  out.notes = {{"advances", static_cast<double>(out.request_s.size()), "count"},
               {"inline_share", inline_share, "ratio"},
               {"generator_late_ms", 1e3 * median(late_s), "ms"}};
  if (tail_p) {
    out.notes.push_back({"tail_percentile", *tail_p, "%"});
    out.notes.push_back({"tail_ms", 1e3 * percentile(out.request_s, *tail_p), "ms"});
  }
  if (tracer.enabled()) {
    const auto rate = [](long n, double t) { return t > 0 ? n / t : 0.0; };
    out.per_layer = {
        {"serve.admits_per_s", rate(kScenarios, admit_time)},
        {"serve.inline_share", inline_share},
        {"serve.inline_per_s", rate(inline_count, inline_time)},
        {"serve.status_per_s", rate(status_count, status_time)},
        {"serve.checkpoints_per_s", rate(checkpoint_count, checkpoint_time)},
        {"serve.busy_cell_steps_per_s", cell_steps / busy_s},
        {"par.cpu_per_wall", out.request_cpu_s / wall},
    };
  }
  return out;
}

}  // namespace e2e
