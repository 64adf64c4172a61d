// The three benchmark workloads and what they share.
//
// Each workload builds its inputs from the workload seed, measures for the
// requested number of seconds, checks the program's outputs, and fills a
// RunResult. With tracing off it reports the end-to-end metrics; with
// tracing on it reports the per-layer metrics (derived from spans the
// benchmark records around its own calls into each layer) plus the
// tracing overhead.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;          ///< workload seed: victims, request stream, samples
  double seconds = 10.0;           ///< measured time per run
  bool trace = false;
  std::uint32_t scale = 8000;      ///< ASes in the generated topology
  std::uint64_t topology_seed = 2014;
  unsigned workers = 1;            ///< W: sweep threads, serve workers/clients, campaign workers
  std::string workdir = ".";       ///< scratch files (the serve snapshot, span dumps)
};

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// name -> value; units come from metric_defs().
  std::map<std::string, double> metrics;

  /// Count one checked operation; a false `ok` is a failure.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Every metric name the benchmark reports, with its unit: the end-to-end
/// set first, then the per-layer set. A traced run prints every per-layer
/// name (0 where the workload leaves that layer idle), an untraced run every
/// end-to-end name its workload defines.
struct MetricDef {
  const char* name;
  const char* unit;
  bool end_to_end;
};
const std::vector<MetricDef>& metric_defs();

/// Generate the fixed benchmark topology.
bgpsim::Scenario make_scenario(const Options& options);

/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();

/// Seconds elapsed since `start_ns` (a now_ns() reading).
double seconds_since(std::int64_t start_ns);

/// Convert a summary's time unit: durations are recorded in microseconds.
inline double us_to_ms(double us) { return us / 1e3; }

void run_sweep(const Options& options, RunResult& result);
void run_serve(const Options& options, RunResult& result);
void run_campaign_workload(const Options& options, RunResult& result);

/// Where a traced run writes its spans (inside the workdir).
std::string span_dump_path(const Options& options);

}  // namespace perfbench
