// What every workload receives and returns.
//
// Every workload reports the same end-to-end metrics (main.cpp turns an
// Outcome into them) and fills in the per-layer metrics of the layers it
// runs; the per-layer table in main.cpp lists every name, and a layer a
// workload does not run reads 0 there. Per-layer metrics are therefore
// counts, shares and rates, which are 0 when nothing ran, never the median
// duration of calls that were never made.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.h"

namespace e2e {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;          // measured part of the run
  bool trace = false;           // per-layer run: record spans
  std::string out_dir = ".bench_trace";  // trace files (traced runs only)
  std::string work_dir = ".bench_build/work";  // scratch files (checkpoints)
  Clock::time_point process_start;  // setup_s is measured from here
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  // From process start to the first timed request: construction, admission
  // and one untimed warm-up request.
  double setup_s = 0;
  // The workload's request (an assimilation cycle, a product fetch that
  // runs a sweep, a coupled forecast, an advance request): the wall time of
  // each timed one, and the process CPU time over all of them.
  std::vector<double> request_s;
  double request_cpu_s = 0;
  std::map<std::string, double> per_layer;  // names from main.cpp's table
  // Figures reported on stderr and in the trace file only (output quality
  // such as the analysis error, which only one workload has).
  std::vector<Metric> notes;
  std::vector<std::string> errors; // failed correctness checks (empty = ok)

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void check_error(const std::string& err) {
    if (!err.empty()) errors.push_back(err);
  }
};

// CPU seconds consumed by this process so far (all threads).
[[nodiscard]] double process_cpu_seconds();

Outcome run_assimilate(const RunArgs& args, Tracer& tracer);
Outcome run_serve_fleet(const RunArgs& args, Tracer& tracer);
Outcome run_risk_products(const RunArgs& args, Tracer& tracer);
Outcome run_coupled_forecast(const RunArgs& args, Tracer& tracer);

}  // namespace e2e
