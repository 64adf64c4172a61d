#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string_view>
#include <utility>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t covered_ns(const Span& parent, std::span<const Span> children) {
  std::vector<std::pair<std::int64_t, std::int64_t>> clipped;
  clipped.reserve(children.size());
  for (const Span& child : children) {
    const std::int64_t lo = std::max(child.start_ns, parent.start_ns);
    const std::int64_t hi = std::min(child.end_ns, parent.end_ns);
    if (hi > lo) clipped.emplace_back(lo, hi);
  }
  std::sort(clipped.begin(), clipped.end());
  std::int64_t covered = 0;
  std::int64_t run_lo = 0;
  std::int64_t run_hi = 0;
  bool open = false;
  for (const auto& [lo, hi] : clipped) {
    if (open && lo <= run_hi) {
      run_hi = std::max(run_hi, hi);
      continue;
    }
    if (open) covered += run_hi - run_lo;
    run_lo = lo;
    run_hi = hi;
    open = true;
  }
  if (open) covered += run_hi - run_lo;
  return covered;
}

std::int64_t self_ns(const Span& parent, std::span<const Span> children) {
  return parent.duration_ns() - covered_ns(parent, children);
}

std::unordered_map<std::uint64_t, std::vector<Span>> children_by_parent(
    const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<Span>> out;
  for (const Span& span : spans) {
    if (span.parent != 0) out[span.parent].push_back(span);
  }
  return out;
}

std::uint64_t SpanLane::begin(const char* name, std::uint64_t parent,
                              std::uint64_t trace) {
  // Lane in the high bits keeps ids unique across threads without a shared
  // counter; +1 keeps 0 free for "no parent".
  const std::uint64_t id =
      (static_cast<std::uint64_t>(lane_) << 40) | (spans_.size() + 1);
  spans_.push_back(Span{id, parent, trace, name, now_ns(), 0});
  return id;
}

void SpanLane::end(std::uint64_t id) {
  const std::size_t index = (id & ((std::uint64_t{1} << 40) - 1)) - 1;
  spans_[index].end_ns = now_ns();
}

std::uint64_t SpanLane::record(const char* name, std::uint64_t parent,
                               std::uint64_t trace, std::int64_t start_ns,
                               std::int64_t end_ns) {
  const std::uint64_t id = begin(name, parent, trace);
  spans_.back().start_ns = start_ns;
  spans_.back().end_ns = end_ns;
  return id;
}

Tracer::Tracer(std::uint32_t lanes) {
  lanes_.reserve(lanes);
  for (std::uint32_t i = 0; i < lanes; ++i) lanes_.emplace_back(i);
}

std::vector<Span> Tracer::collect() const {
  std::vector<Span> all;
  for (const SpanLane& lane : lanes_) {
    all.insert(all.end(), lane.spans().begin(), lane.spans().end());
  }
  return all;
}

std::vector<double> Tracer::durations_us(const char* name) const {
  std::vector<double> out;
  const std::string_view wanted(name);
  for (const SpanLane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      if (wanted == span.name) {
        out.push_back(static_cast<double>(span.duration_ns()) / 1e3);
      }
    }
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("{\"traceEvents\": [", file);
  bool first = true;
  for (std::size_t lane = 0; lane < lanes_.size(); ++lane) {
    for (const Span& span : lanes_[lane].spans()) {
      std::fprintf(file,
                   "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"trace\": %llu}}",
                   first ? "" : ",", span.name, lane,
                   static_cast<double>(span.start_ns) / 1e3,
                   static_cast<double>(span.duration_ns()) / 1e3,
                   static_cast<unsigned long long>(span.id),
                   static_cast<unsigned long long>(span.parent),
                   static_cast<unsigned long long>(span.trace));
      first = false;
    }
  }
  std::fputs("\n]}\n", file);
  return std::fclose(file) == 0;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  // Nearest rank: the ceil(q·n)-th smallest value, rank clamped to [1, n].
  // q is taken in per-mille integers so that e.g. 0.99·100 is exactly 99.
  const auto per_mille = static_cast<std::size_t>(std::llround(q * 1000.0));
  std::size_t rank = (per_mille * sorted.size() + 999) / 1000;
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 0.5);
}

Summary summarize(std::vector<double> values) {
  Summary out;
  out.n = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  out.p50 = percentile_sorted(values, 0.50);
  out.p90 = percentile_sorted(values, 0.90);
  out.p99 = percentile_sorted(values, 0.99);
  out.max = values.back();
  return out;
}

double highest_reportable_percentile(std::size_t n) {
  // Same per-mille rank rule as percentile_sorted.
  double best = 0.0;
  for (const std::size_t per_mille : {500, 900, 990, 999}) {
    const std::size_t rank = (per_mille * n + 999) / 1000;
    if (n >= rank + 10) best = static_cast<double>(per_mille) / 10.0;
  }
  return best;
}

}  // namespace perfbench
