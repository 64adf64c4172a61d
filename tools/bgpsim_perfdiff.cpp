// bgpsim-perfdiff — compare BENCH_*.json run reports across builds
// (`bgpsim-perfdiff --help` for the flags). Exit codes: 0 no regression (or
// baselines updated); 1 perf or fidelity regression, named in the output;
// 2 usage error, unreadable/malformed report, or incomparable topologies.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "flags.hpp"
#include "obs/perfdiff.hpp"

namespace {

namespace flags = bgpsim::flags;
using bgpsim::obs::BenchSample;
using bgpsim::obs::DiffOptions;
using bgpsim::obs::PerfDiffResult;

const flags::Usage kUsage{
    "bgpsim-perfdiff --baseline <report|dir> --candidate <report|dir> [options]\n"
    "       bgpsim-perfdiff --candidate <report|dir> --update-baselines <dir>",
    "Pairs BENCH_*.json reports by (name, scale, seed) and reports per-metric\n"
    "deltas; counters must match exactly. Exits 1 on regression, 2 on error.",
    {flags::text("baseline", "baseline report or directory"),
     flags::text("candidate", "candidate report or directory (required)"),
     flags::text("update-baselines", "write the candidate reports there as baselines"),
     flags::fraction("threshold", "time-metric regression threshold (default 0.10)"),
     flags::fraction("mem-threshold", "gauge.mem.*bytes* threshold (default 0.15)"),
     flags::fraction("alpha", "significance level (default 0.05)", 1),
     flags::fraction("min-seconds", "time noise floor in seconds (default 1e-3)")}};

}  // namespace

int main(int argc, char** argv) {
  flags::Parsed args;
  if (const auto status = args.parse(kUsage, argc, argv, 1)) return *status;
  const std::string baseline_path = args.text("baseline").value_or("");
  const std::string candidate_path = args.text("candidate").value_or("");
  const std::string update_dir = args.text("update-baselines").value_or("");
  DiffOptions options;
  options.threshold = args.fraction("threshold", options.threshold);
  options.mem_threshold = args.fraction("mem-threshold", options.mem_threshold);
  options.alpha = args.fraction("alpha", options.alpha);
  options.min_seconds = args.fraction("min-seconds", options.min_seconds);
  if (candidate_path.empty() || (baseline_path.empty() && update_dir.empty())) {
    return flags::usage_error(kUsage, "--candidate and --baseline or "
                                      "--update-baselines are required");
  }

  const auto load = [](const std::string& path) {
    std::vector<BenchSample> reports = bgpsim::obs::load_reports(path);
    if (reports.empty()) {
      throw std::runtime_error("no BENCH_*.json reports under " + path);
    }
    return reports;
  };
  try {
    const std::vector<BenchSample> candidate = load(candidate_path);
    if (!update_dir.empty()) {
      const std::vector<std::string> written =
          bgpsim::obs::update_baselines(candidate, update_dir);
      for (const std::string& file : written) {
        std::printf("baseline updated: %s/%s\n", update_dir.c_str(), file.c_str());
      }
      return 0;
    }

    const std::vector<BenchSample> baseline = load(baseline_path);
    for (const BenchSample& sample : baseline) {
      if (sample.topology_checksum == 0) {
        std::fprintf(stderr,
                     "warning: %s has no topology_checksum (old report); "
                     "topology comparability not verified\n",
                     sample.path.c_str());
      }
    }

    const PerfDiffResult result =
        bgpsim::obs::diff_reports(baseline, candidate, options);
    std::fputs(result.render(options).c_str(), stdout);
    if (result.benches.empty()) {
      std::fprintf(stderr, "no (name, scale, seed) pairings matched\n");
      return 2;
    }
    return result.regression ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfdiff: %s\n", e.what());
    return 2;
  }
}
