// In-memory span tracing and the summary arithmetic of the benchmark.
//
// Spans are recorded by the benchmark around its own calls into each bgpsim
// layer (nothing inside the library is instrumented). Each thread records
// into its own SpanLane, so recording takes no lock; lanes are merged and
// written out once, after the measured work has ended.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

/// Monotonic clock reading in nanoseconds (steady_clock).
std::int64_t now_ns();

struct Span {
  std::uint64_t id = 0;      ///< unique across the lanes of one Tracer
  std::uint64_t parent = 0;  ///< id of the span that caused this one; 0 = root
  std::uint64_t trace = 0;   ///< shared by every span of one request/operation
  const char* name = "";     ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Time inside `parent`'s interval that at least one child interval covers.
/// Children are clipped to the parent, and overlapping children (spans from
/// concurrent threads) are counted once.
std::int64_t covered_ns(const Span& parent, std::span<const Span> children);

/// A span's self time: its duration minus the part its children cover.
std::int64_t self_ns(const Span& parent, std::span<const Span> children);

/// Direct children of every span that has any, keyed by parent id (input
/// order kept within each list).
std::unordered_map<std::uint64_t, std::vector<Span>> children_by_parent(
    const std::vector<Span>& spans);

/// Append-only span buffer for one thread.
class SpanLane {
 public:
  explicit SpanLane(std::uint32_t lane) : lane_(lane) {}

  /// Open a span and return its id; close it with end(id).
  std::uint64_t begin(const char* name, std::uint64_t parent = 0,
                      std::uint64_t trace = 0);
  void end(std::uint64_t id);
  /// Record a span whose interval was measured elsewhere.
  std::uint64_t record(const char* name, std::uint64_t parent,
                       std::uint64_t trace, std::int64_t start_ns,
                       std::int64_t end_ns);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint32_t lane_;
  std::vector<Span> spans_;
};

/// RAII span over a possibly-absent lane: with a null lane (the untraced
/// legs) it records nothing and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanLane* lane, const char* name, std::uint64_t parent = 0,
             std::uint64_t trace = 0)
      : lane_(lane), id_(lane != nullptr ? lane->begin(name, parent, trace) : 0) {}
  ~ScopedSpan() {
    if (lane_ != nullptr) lane_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLane* lane_;
  std::uint64_t id_;
};

/// The lanes of one run, one per recording thread.
class Tracer {
 public:
  explicit Tracer(std::uint32_t lanes = 1);

  /// Lane `index` (< the lane count); the reference stays valid for the
  /// Tracer's lifetime.
  SpanLane& lane(std::uint32_t index) { return lanes_.at(index); }

  /// Every recorded span, lanes concatenated in lane order.
  std::vector<Span> collect() const;

  /// Durations (microseconds) of every span named `name`.
  std::vector<double> durations_us(const char* name) const;

  /// Write all spans as one JSON document (Chrome trace-event format, so
  /// chrome://tracing or Perfetto can open it). Returns false on I/O error.
  bool write_json(const std::string& path) const;

 private:
  std::vector<SpanLane> lanes_;
};

/// Order statistics of one sample set. Percentiles use the nearest-rank
/// rule: pq is the smallest value with at least q·n values at or below it.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

Summary summarize(std::vector<double> values);

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
double percentile_sorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (0 when empty).
double median(std::vector<double> values);

/// The highest of the percentiles 50, 90, 99 and 99.9 with at least ten
/// samples above it in a sample of `n` (0 when not even p50 qualifies).
/// A percentile with fewer samples beyond it is one outlier's value.
double highest_reportable_percentile(std::size_t n);

}  // namespace perfbench
