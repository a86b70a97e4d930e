// In-memory span recorder for the traced run. A span is (name, start, end,
// parent, thread); spans are kept in memory for the whole run and written
// out once at the end as Chrome trace-event JSON ("ph":"X" complete events,
// loadable in chrome://tracing or Perfetto), so recording costs one clock
// read and one locked append per boundary and no I/O while the run measures.
//
// When the tracer is disabled every call is a no-op apart from the clock
// reads a Span makes for its own seconds(); the untraced run therefore
// executes the same calls as the traced one, minus the recording.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  using SpanId = std::uint32_t;  // 0 = no span (root / disabled)

  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Records a finished span. `name` must outlive the tracer (a literal).
  SpanId add(const char* name, Clock::time_point start, Clock::time_point end,
             SpanId parent = 0);

  // Opens a span now; close it with end(). Thread-safe.
  SpanId begin(const char* name, SpanId parent = 0);
  void end(SpanId id);

  [[nodiscard]] std::size_t span_count() const;

  // Writes the Chrome trace-event JSON to `path`; `other_data` is a JSON
  // object (text) stored under "otherData" (the per-layer table).
  void write_chrome_json(const std::string& path,
                         const std::string& other_data) const;

  // The JSON document write_chrome_json writes (exposed for tests).
  [[nodiscard]] std::string chrome_json(const std::string& other_data) const;

 private:
  struct Record {
    const char* name = nullptr;
    std::int64_t start_ns = 0, end_ns = -1;  // since the tracer's epoch
    SpanId parent = 0;
    int thread = 0;
  };
  [[nodiscard]] std::int64_t ns_since_epoch(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Record> spans_;  // guarded by mu_; id = index + 1
};

// Scoped span: always measures its own duration (the workloads time their
// end-to-end metrics with it), and records into the tracer when enabled.
class Span {
 public:
  Span(Tracer& t, const char* name, Tracer::SpanId parent = 0)
      : tracer_(t), start_(Clock::now()), id_(t.begin(name, parent)) {}
  ~Span() { stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Ends the span early; returns its duration [s]. Idempotent.
  double stop() {
    if (!stopped_) {
      end_ = Clock::now();
      tracer_.end(id_);
      stopped_ = true;
    }
    return seconds_between(start_, end_);
  }
  [[nodiscard]] Tracer::SpanId id() const { return id_; }

 private:
  Tracer& tracer_;
  Clock::time_point start_, end_;
  Tracer::SpanId id_;
  bool stopped_ = false;
};

}  // namespace e2e
