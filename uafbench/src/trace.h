// In-memory span recorder for the traced run. The benchmark opens a span
// around each call it makes into a layer's public function; spans nest by
// call order, so each span's parent is the span open when it started.
// Spans stay in memory and are written out once, at the end of the run.
// A disabled Tracer records nothing and reads no clock, which makes the
// untraced twin of a traced loop.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace uafbench {

struct Span {
  const char* name = "";    ///< layer boundary, a string literal
  std::uint64_t item = 0;   ///< program or request id the span belongs to
  std::int32_t parent = -1; ///< index of the enclosing span, -1 for a root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  [[nodiscard]] std::int64_t durationNs() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span under the innermost open span; returns its index, or -1
  /// when disabled.
  int open(const char* name, std::uint64_t item);
  /// Closes span `index` (a no-op for -1).
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span to `path`; false on I/O failure.
  bool writeJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// Opens a span for the lifetime of the scope.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, std::uint64_t item)
      : tracer_(tracer), index_(tracer.open(name, item)) {}
  ~SpanScope() { tracer_.close(index_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
[[nodiscard]] std::vector<std::int64_t> selfTimesNs(
    const std::vector<Span>& spans);

/// Per-name totals of self time, in nanoseconds.
[[nodiscard]] std::map<std::string, std::int64_t> selfTotalsNs(
    const std::vector<Span>& spans);

/// Per-name, per-item sums of span duration, in microseconds: one sample
/// per item that has at least one span of that name.
[[nodiscard]] std::map<std::string, std::vector<double>> itemDurationsUs(
    const std::vector<Span>& spans);

}  // namespace uafbench
