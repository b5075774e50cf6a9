// In-memory span recorder for the benchmark's traced runs.
//
// Spans are recorded by the harness around its calls into each layer's
// public functions (the simulator itself carries no span code): name,
// start, end and parent, kept in memory and written as one JSON document
// when the run ends. A disabled tracer records nothing, so the untraced
// runs that give the end-to-end numbers pay one branch per call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  std::int32_t open(const char* name) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, now_ns(), -1, open_});
    open_ = static_cast<std::int32_t>(spans_.size()) - 1;
    return open_;
  }

  void close(std::int32_t index) {
    if (index < 0) return;
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    open_ = s.parent;
  }

  /// Records an already-timed span (e.g. a live round trip measured on
  /// another thread) under the innermost open span.
  void record(const char* name, Clock::time_point start, Clock::time_point end) {
    if (!enabled_) return;
    spans_.push_back(Span{name, ns_since_origin(start), ns_since_origin(end),
                          open_});
  }

  /// Writes {"spans": [[name, start_ns, end_ns, parent], ...]}.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"schema\": \"massf.perfbench.trace.v1\", \"spans\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "  [\"%s\", %lld, %lld, %d]%s\n", s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< index of the enclosing span, -1 at the root
  };

  std::int64_t ns_since_origin(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  std::int64_t now_ns() const { return ns_since_origin(Clock::now()); }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// RAII span: opened on construction, closed on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t index_;
};

}  // namespace perfbench
