// wfire end-to-end benchmark.
//
//   wfire_e2ebench --workload <assimilate|serve_fleet|risk_products|
//                              coupled_forecast>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>] [--work-dir <dir>]
//
// Runs one workload for --seconds of measured time, checks the program's
// outputs, and prints as its last stdout line one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Every workload prints the same metrics: set-up time, the
// median wall time of its request and the CPU time per request, or every
// per-layer metric of the table below. A traced run also writes
// <out-dir>/<workload>-<seed>.json: the recorded spans as Chrome
// trace-event JSON, with both metric tables and the workload's notes under
// "otherData". Progress, notes and failed checks go to stderr.
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iterator>
#include <map>
#include <stdexcept>
#include <string>

#include "stats.h"

#include "workload.h"

namespace e2e {

// Set-up is timed from process start. run.py passes the CLOCK_MONOTONIC
// instant (ns) just before it spawned this process, so exec and dynamic
// loading count; run directly, the clock starts at static initialization.
static const Clock::time_point g_process_start = [] {
  if (const char* s = std::getenv("E2E_SPAWN_MONOTONIC_NS")) {
    char* end = nullptr;
    const long long ns = std::strtoll(s, &end, 10);
    if (end != s && *end == '\0' && ns > 0)
      return Clock::time_point(std::chrono::nanoseconds(ns));
  }
  return Clock::now();
}();

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "wfire_e2ebench: %s\nusage: wfire_e2ebench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--work-dir <dir>]\n",
               why);
  std::exit(2);
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[160];
  for (const Metric& m : ms) {
    if (out.size() > 1) out += ",";
    std::snprintf(buf, sizeof buf, "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  return out + "}";
}

// The per-layer metrics, in the order BENCHMARK.json lists them. Each
// workload fills in the layers it runs; the others read 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kPerLayer[] = {
    {"core.advance_share", "ratio"},
    {"core.obs_function_share", "ratio"},
    {"core.analysis_share", "ratio"},
    {"core.state_update_share", "ratio"},
    {"morphing.register_share", "ratio"},
    {"morphing.register_iters", "count"},
    {"enkf.obs_rows", "count"},
    {"enkf.state_rows", "count"},
    {"serve.admits_per_s", "1/s"},
    {"serve.inline_share", "ratio"},
    {"serve.inline_per_s", "1/s"},
    {"serve.status_per_s", "1/s"},
    {"serve.checkpoints_per_s", "1/s"},
    {"serve.busy_cell_steps_per_s", "cell-steps/s"},
    {"risk.small.cell_steps_per_s", "cell-steps/s"},
    {"risk.large.cell_steps_per_s", "cell-steps/s"},
    {"risk.small.inline_members", "count"},
    {"risk.small.pooled_members", "count"},
    {"risk.large.inline_members", "count"},
    {"risk.large.pooled_members", "count"},
    {"risk.hits_per_s", "1/s"},
    {"risk.hits", "count"},
    {"risk.misses", "count"},
    {"risk.sweeps_run", "count"},
    {"coupling.steps_per_s", "1/s"},
    {"atmos.mg_cycles", "count"},
    {"par.cpu_per_wall", "ratio"},
};

std::vector<Metric> end_to_end(const Outcome& o) {
  const double n = static_cast<double>(o.request_s.size());
  return {{"setup_s", o.setup_s, "s"},
          {"request_s", median(o.request_s), "s"},
          {"request_cpu_s", o.request_cpu_s / n, "s"}};
}

std::vector<Metric> per_layer(const Outcome& o) {
  std::vector<Metric> out;
  for (const LayerMetric& m : kPerLayer) {
    const auto it = o.per_layer.find(m.name);
    out.push_back({m.name, it == o.per_layer.end() ? 0.0 : it->second, m.unit});
  }
  for (const auto& [name, value] : o.per_layer)
    if (std::none_of(std::begin(kPerLayer), std::end(kPerLayer),
                     [&](const LayerMetric& m) { return name == m.name; }))
      throw std::logic_error("per-layer metric " + name + " is not in the table");
  return out;
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  a.process_start = g_process_start;
  std::map<std::string, std::string> kv;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k.rfind("--", 0) != 0 || i + 1 >= argc) usage("malformed arguments");
    kv[k.substr(2)] = argv[++i];
  }
  try {
    if (!kv.count("workload")) usage("--workload is required");
    a.workload = kv["workload"];
    if (kv.count("seed")) a.seed = std::stoull(kv["seed"]);
    if (kv.count("seconds")) a.seconds = std::stod(kv["seconds"]);
    if (kv.count("trace")) a.trace = std::stoi(kv["trace"]) != 0;
    if (kv.count("out-dir")) a.out_dir = kv["out-dir"];
    if (kv.count("work-dir")) a.work_dir = kv["work-dir"];
  } catch (const std::exception&) {
    usage("unparsable argument value");
  }
  if (!(a.seconds > 0)) usage("--seconds must be > 0");
  return a;
}

}  // namespace

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  const RunArgs args = parse(argc, argv);
  Outcome (*run)(const RunArgs&, Tracer&) = nullptr;
  if (args.workload == "assimilate") run = run_assimilate;
  else if (args.workload == "serve_fleet") run = run_serve_fleet;
  else if (args.workload == "risk_products") run = run_risk_products;
  else if (args.workload == "coupled_forecast") run = run_coupled_forecast;
  else usage("unknown workload");

  Tracer tracer(args.trace);
  Outcome out;
  std::vector<Metric> e2e_metrics, layer_metrics;
  try {
    out = run(args, tracer);
    if (out.request_s.empty()) throw std::runtime_error("no timed request");
    e2e_metrics = end_to_end(out);
    layer_metrics = per_layer(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wfire_e2ebench: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }
  for (const std::string& e : out.errors)
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", args.workload.c_str(),
                 e.c_str());
  for (const Metric& m : out.notes)
    std::fprintf(stderr, "%s: %s %.6g %s\n", args.workload.c_str(),
                 m.name.c_str(), m.value, m.unit.c_str());

  if (args.trace) {
    std::filesystem::create_directories(args.out_dir);
    const std::string path = args.out_dir + "/" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    const std::string other =
        "{\"workload\":\"" + args.workload +
        "\",\"seed\":" + std::to_string(args.seed) +
        ",\"per_layer\":" + metrics_json(layer_metrics) +
        ",\"end_to_end\":" + metrics_json(e2e_metrics) +
        ",\"notes\":" + metrics_json(out.notes) + "}";
    tracer.write_chrome_json(path, other);
    std::fprintf(stderr, "trace: %zu spans -> %s\n", tracer.span_count(),
                 path.c_str());
    for (const Metric& m : layer_metrics)
      std::fprintf(stderr, "  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                   m.unit.c_str());
  }
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":%s}\n",
              out.errors.empty() ? "true" : "false", out.attempted, out.failed,
              metrics_json(args.trace ? layer_metrics : e2e_metrics).c_str());
  return 0;
}
