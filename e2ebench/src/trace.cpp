#include "trace.h"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace e2e {

namespace {

// Small dense thread numbers for the trace's "tid" field.
int thread_number() {
  static std::atomic<int> next{1};
  thread_local const int mine = next.fetch_add(1);
  return mine;
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {
  // Room for a typical traced run's spans, so recording rarely reallocates.
  constexpr std::size_t kReserveSpans = 1 << 16;
  if (enabled_) spans_.reserve(kReserveSpans);
}

std::int64_t Tracer::ns_since_epoch(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

Tracer::SpanId Tracer::add(const char* name, Clock::time_point start,
                           Clock::time_point end, SpanId parent) {
  if (!enabled_) return 0;
  const Record r{name, ns_since_epoch(start), ns_since_epoch(end), parent,
                 thread_number()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(r);
  return static_cast<SpanId>(spans_.size());
}

Tracer::SpanId Tracer::begin(const char* name, SpanId parent) {
  if (!enabled_) return 0;
  const Record r{name, ns_since_epoch(Clock::now()), -1, parent,
                 thread_number()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(r);
  return static_cast<SpanId>(spans_.size());
}

void Tracer::end(SpanId id) {
  if (!enabled_ || id == 0) return;
  const std::int64_t now = ns_since_epoch(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(id - 1).end_ns = now;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string Tracer::chrome_json(const std::string& other_data) const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":";
  out += other_data.empty() ? "{}" : other_data;
  out += ",\"traceEvents\":[";
  std::lock_guard<std::mutex> lock(mu_);
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    if (r.end_ns < 0) continue;  // never closed: not a complete event
    if (out.back() != '[') out += ',';
    out += "{\"name\":\"";
    append_escaped(out, r.name);
    std::snprintf(buf, sizeof buf,
                  "\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u}}",
                  r.thread, static_cast<double>(r.start_ns) * 1e-3,
                  static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i + 1,
                  r.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path,
                               const std::string& other_data) const {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw std::runtime_error("trace: cannot write " + path);
  f << chrome_json(other_data);
  if (!f) throw std::runtime_error("trace: write failed: " + path);
}

}  // namespace e2e
