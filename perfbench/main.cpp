// perfbench_driver: runs one benchmark workload and prints its result.
//
//   perfbench_driver --workload sweep|serve|campaign --seed N --seconds S
//                    --trace 0|1 --workers W [--scale 8000]
//                    [--topology-seed 2014] [--workdir DIR]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": n, "failed": n,
//    "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}
// Lines before it are a human-readable log (sample counts, W and nproc).
// perfbench/run.py builds this program and is the intended entry point.
#include <sys/resource.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <vector>

#include "support/parallel.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {

const std::vector<MetricDef>& metric_defs() {
  static const std::vector<MetricDef> defs = {
      // End to end (untraced runs).
      {"setup_s", "s", true},
      {"peak_rss_mb", "MB", true},
      {"throughput_per_s", "1/s", true},
      {"serial_throughput_per_s", "1/s", true},
      {"latency_p50_ms", "ms", true},
      {"latency_p90_ms", "ms", true},
      // Per layer (traced runs).
      {"topology.generate_s", "s", false},
      {"store.snapshot_load_s", "s", false},
      {"store.baseline_ms_per_target", "ms", false},
      {"store.baseline_mb", "MB", false},
      {"bgp.cold_hijack_us_p50", "us", false},
      {"bgp.cold_hijack_us_p90", "us", false},
      {"bgp.warm_repair_us_p50", "us", false},
      {"bgp.warm_repair_us_p90", "us", false},
      {"bgp.warm_fallback_ratio", "ratio", false},
      {"bgp.generation_replay_us_p50", "us", false},
      {"hijack.attack_us_p50", "us", false},
      {"hijack.overhead_us", "us", false},
      {"hijack.warm_hit_ratio", "ratio", false},
      {"defense.top_k_us", "us", false},
      {"defense.top_k_calls_per_request", "count", false},
      {"detect.probe_top_k_us", "us", false},
      {"detect.evaluate_us", "us", false},
      {"detect.replay_ratio", "ratio", false},
      {"obs.json_parse_us", "us", false},
      {"serve.dispatch_us_p50", "us", false},
      {"serve.dispatch_us_p90", "us", false},
      {"serve.unaccounted_us", "us", false},
      {"serve.latency_p99_ms", "ms", false},
      {"serve.latency_samples", "count", false},
      {"net.overhead_us", "us", false},
      {"net.connects_per_request", "count", false},
      {"analysis.sweep_s", "s", false},
      {"analysis.scaling_eff", "ratio", false},
      {"campaign.round_ms_p50", "ms", false},
      {"campaign.round_ms_max", "ms", false},
      {"campaign.scaling_eff", "ratio", false},
      {"campaign.sampler_draw_us", "us", false},
      {"campaign.samples_to_ci", "count", false},
      {"trace.throughput_ratio", "ratio", false},
  };
  return defs;
}

bgpsim::Scenario make_scenario(const Options& options) {
  bgpsim::ScenarioParams params;
  params.topology.total_ases = options.scale;
  params.topology.seed = options.topology_seed;
  return bgpsim::Scenario::generate(params);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

std::string span_dump_path(const Options& options) {
  return options.workdir + "/spans-" + options.workload + "-" +
         std::to_string(options.seed) + ".json";
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "sweep|serve|campaign --seed N --seconds S --trace 0|1 "
               "--workers W [--scale N] [--topology-seed N] [--workdir DIR]\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(std::string_view text, const char* flag) {
  std::uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return value;
}

Options parse_options(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_workers = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag(argv[i]);
    if (i + 1 >= argc) usage("every flag takes a value");
    const std::string_view value(argv[++i]);
    if (flag == "--workload") {
      options.workload = std::string(value);
    } else if (flag == "--seed") {
      options.seed = parse_u64(value, "--seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = static_cast<double>(parse_u64(value, "--seconds"));
      have_seconds = true;
    } else if (flag == "--trace") {
      const std::uint64_t trace = parse_u64(value, "--trace");
      if (trace > 1) usage("--trace takes 0 or 1");
      options.trace = trace == 1;
    } else if (flag == "--workers") {
      options.workers = static_cast<unsigned>(parse_u64(value, "--workers"));
      have_workers = true;
    } else if (flag == "--scale") {
      options.scale = static_cast<std::uint32_t>(parse_u64(value, "--scale"));
    } else if (flag == "--topology-seed") {
      options.topology_seed = parse_u64(value, "--topology-seed");
    } else if (flag == "--workdir") {
      options.workdir = std::string(value);
    } else {
      usage((std::string("unknown flag ") + std::string(flag)).c_str());
    }
  }
  if (options.workload != "sweep" && options.workload != "serve" &&
      options.workload != "campaign") {
    usage("--workload must be sweep, serve or campaign");
  }
  if (!have_seed || !have_seconds || !have_workers) {
    usage("--seed, --seconds and --workers are required");
  }
  if (options.seconds < 1 || options.workers < 1 || options.scale < 500) {
    usage("--seconds and --workers must be >= 1, --scale >= 500");
  }
  return options;
}

/// Drop every BGPSIM_* variable: an inherited access log, event log,
/// provenance ring, profiler, trace sink, heartbeat or thread count would
/// change what the measured program does. Everything the run needs is
/// passed explicitly instead.
void clear_bgpsim_environment() {
  std::vector<std::string> names;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string_view var(*entry);
    if (var.rfind("BGPSIM_", 0) == 0) {
      names.emplace_back(var.substr(0, var.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
}

/// Shortest decimal that round-trips the double: every digit as measured.
std::string number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

void print_result(const Options& options, const RunResult& result) {
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& def : metric_defs()) {
    if (def.end_to_end == options.trace) continue;
    const auto it = result.metrics.find(def.name);
    // A traced run lists every per-layer metric; a layer the workload does
    // not exercise reads 0 (no work done).
    const double value = it != result.metrics.end() ? it->second : 0.0;
    if (!first) line += ", ";
    first = false;
    line += "\"";
    line += def.name;
    line += "\": {\"value\": " + number(value) + ", \"unit\": \"";
    line += def.unit;
    line += "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  clear_bgpsim_environment();
  const Options options = parse_options(argc, argv);
  std::printf("perfbench: workload=%s seed=%llu seconds=%.0f trace=%d "
              "scale=%u topology_seed=%llu W=%u nproc=%u\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, options.scale,
              static_cast<unsigned long long>(options.topology_seed),
              options.workers, bgpsim::hardware_threads());
  RunResult result;
  try {
    if (options.workload == "sweep") {
      run_sweep(options, result);
    } else if (options.workload == "serve") {
      run_serve(options, result);
    } else {
      run_campaign_workload(options, result);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(),
                 e.what());
    return 1;
  }
  if (!options.trace) result.metrics["peak_rss_mb"] = peak_rss_mb();
  for (const MetricDef& def : metric_defs()) {
    if (def.end_to_end == options.trace) continue;
    const auto it = result.metrics.find(def.name);
    if (it != result.metrics.end()) {
      std::printf("  %-34s %16.6g %s\n", def.name, it->second, def.unit);
    }
  }
  std::fflush(stdout);
  print_result(options, result);
  return 0;
}
