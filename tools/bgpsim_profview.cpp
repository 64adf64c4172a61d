// bgpsim-profview — terminal viewer for collapsed-stack (folded) CPU
// profiles, the format the in-process sampling profiler (obs/profiler.hpp)
// writes and flamegraph.pl / speedscope consume:
//
//   frame;frame;frame <samples>        (root first, one line per stack)
//
// Exit status: 0 on success, 1 on unreadable/empty/malformed input, 2 on
// usage errors.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "flags.hpp"

namespace {

namespace flags = bgpsim::flags;

struct Profile {
  std::uint64_t total_samples = 0;
  std::map<std::string, std::uint64_t> self;   // leaf frame -> samples
  std::map<std::string, std::uint64_t> total;  // frame anywhere -> samples
};

/// Split one folded stack ("a;b;c") into frames. Returns false on an empty
/// stack or empty frame (";;" or leading/trailing ';').
bool split_stack(const std::string& stack, std::vector<std::string>& frames) {
  frames.clear();
  std::size_t start = 0;
  while (start <= stack.size()) {
    std::size_t semi = stack.find(';', start);
    if (semi == std::string::npos) semi = stack.size();
    if (semi == start) return false;
    frames.emplace_back(stack.substr(start, semi - start));
    start = semi + 1;
  }
  return !frames.empty();
}

bool load_profile(const std::string& path, Profile& out) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "profview: cannot read %s\n", path.c_str());
    return false;
  }
  std::string line;
  std::vector<std::string> frames;
  std::vector<std::string> seen;  // frames already counted for this stack
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    // The sample count follows the LAST space: frame names may themselves
    // contain spaces (demangled signatures), never the separator semicolon.
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      std::fprintf(stderr, "profview: %s:%zu: no sample count\n", path.c_str(),
                   lineno);
      return false;
    }
    const std::string field = line.substr(space + 1);
    const char* field_end = field.data() + field.size();
    std::uint64_t count = 0;
    const auto read = std::from_chars(field.data(), field_end, count);
    if (read.ec != std::errc() || read.ptr != field_end || count == 0) {
      std::fprintf(stderr, "profview: %s:%zu: bad sample count '%s'\n",
                   path.c_str(), lineno, field.c_str());
      return false;
    }
    if (!split_stack(line.substr(0, space), frames)) {
      std::fprintf(stderr, "profview: %s:%zu: malformed stack\n", path.c_str(),
                   lineno);
      return false;
    }
    out.total_samples += count;
    out.self[frames.back()] += count;
    seen.clear();
    for (const std::string& frame : frames) {
      // Recursive frames appear multiple times in one stack; total time
      // still counts each stack once per distinct frame.
      if (std::find(seen.begin(), seen.end(), frame) != seen.end()) continue;
      seen.push_back(frame);
      out.total[frame] += count;
    }
  }
  if (out.total_samples == 0) {
    std::fprintf(stderr, "profview: %s: empty profile\n", path.c_str());
    return false;
  }
  return true;
}

std::string truncate_frame(const std::string& frame, std::size_t width) {
  if (frame.size() <= width) return frame;
  return frame.substr(0, width - 3) + "...";
}

double pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0
                    : 100.0 * static_cast<double>(part) /
                          static_cast<double>(whole);
}

int cmd_top(const std::string& path, std::size_t top_n, bool sort_by_total) {
  Profile prof;
  if (!load_profile(path, prof)) return 1;

  struct Row {
    const std::string* frame;
    std::uint64_t self;
    std::uint64_t total;
  };
  std::vector<Row> rows;
  rows.reserve(prof.total.size());
  for (const auto& [frame, total] : prof.total) {
    const auto self_it = prof.self.find(frame);
    rows.push_back(
        {&frame, self_it == prof.self.end() ? 0 : self_it->second, total});
  }
  std::stable_sort(rows.begin(), rows.end(), [&](const Row& a, const Row& b) {
    return sort_by_total ? a.total > b.total : a.self > b.self;
  });

  std::printf("%s: %llu samples, %zu unique frames (sorted by %s)\n",
              path.c_str(),
              static_cast<unsigned long long>(prof.total_samples),
              prof.total.size(), sort_by_total ? "total" : "self");
  std::printf("%10s %7s %10s %7s  %s\n", "self", "self%", "total", "total%",
              "frame");
  const std::size_t n = std::min(top_n, rows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Row& row = rows[i];
    std::printf("%10llu %6.2f%% %10llu %6.2f%%  %s\n",
                static_cast<unsigned long long>(row.self),
                pct(row.self, prof.total_samples),
                static_cast<unsigned long long>(row.total),
                pct(row.total, prof.total_samples),
                truncate_frame(*row.frame, 100).c_str());
  }
  return 0;
}

int cmd_diff(const std::string& path_a, const std::string& path_b,
             std::size_t top_n) {
  Profile a;
  Profile b;
  if (!load_profile(path_a, a) || !load_profile(path_b, b)) return 1;

  // Compare in percent of each run's own samples, so two reps of different
  // lengths (or rates) still diff meaningfully.
  struct Row {
    const std::string* frame;
    double self_a;
    double self_b;
    double total_a;
    double total_b;
  };
  std::map<std::string, Row> by_frame;
  const auto fold = [&](const Profile& p, bool is_a) {
    for (const auto& [frame, total] : p.total) {
      Row& row = by_frame
                     .try_emplace(frame, Row{nullptr, 0.0, 0.0, 0.0, 0.0})
                     .first->second;
      const auto self_it = p.self.find(frame);
      const double self_pct =
          pct(self_it == p.self.end() ? 0 : self_it->second, p.total_samples);
      const double total_pct = pct(total, p.total_samples);
      (is_a ? row.self_a : row.self_b) = self_pct;
      (is_a ? row.total_a : row.total_b) = total_pct;
    }
  };
  fold(a, true);
  fold(b, false);

  std::vector<std::pair<const std::string*, const Row*>> rows;
  rows.reserve(by_frame.size());
  for (const auto& [frame, row] : by_frame) rows.emplace_back(&frame, &row);
  std::stable_sort(rows.begin(), rows.end(), [](const auto& x, const auto& y) {
    return std::fabs(x.second->self_b - x.second->self_a) >
           std::fabs(y.second->self_b - y.second->self_a);
  });

  std::printf("diff: A=%s (%llu samples)  B=%s (%llu samples)\n",
              path_a.c_str(), static_cast<unsigned long long>(a.total_samples),
              path_b.c_str(), static_cast<unsigned long long>(b.total_samples));
  std::printf("%8s %8s %8s  %8s %8s %8s  %s\n", "selfA%", "selfB%", "Δself",
              "totA%", "totB%", "Δtot", "frame");
  const std::size_t n = std::min(top_n, rows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Row& row = *rows[i].second;
    std::printf("%7.2f%% %7.2f%% %+7.2f%%  %7.2f%% %7.2f%% %+7.2f%%  %s\n",
                row.self_a, row.self_b, row.self_b - row.self_a, row.total_a,
                row.total_b, row.total_b - row.total_a,
                truncate_frame(*rows[i].first, 80).c_str());
  }
  return 0;
}

const flags::Usage kUsage{
    "bgpsim-profview <profile.folded> [--top N] [--sort self|total]\n"
    "       bgpsim-profview --diff <a.folded> <b.folded> [--top N]",
    "Top-N frames by self samples (frame is the leaf) and total samples (frame\n"
    "anywhere on the stack, once per stack); --diff sorts frames by |Δself|.",
    {flags::toggle("diff", "compare two profiles"),
     flags::count<std::size_t>("top", "frames to print, at least 1 (default 20)"),
     flags::text("sort", "self|total: rank by self or total samples (default self)")},
    2};

}  // namespace

int main(int argc, char** argv) {
  flags::Parsed args;
  if (const auto status = args.parse(kUsage, argc, argv, 1)) return *status;
  const std::vector<std::string>& files = args.positional();
  const std::size_t top_n = args.count<std::size_t>("top", 20);
  const std::string sort = args.text("sort").value_or("self");
  if (top_n == 0) return flags::usage_error(kUsage, "--top must be at least 1");
  if (sort != "self" && sort != "total") {
    return flags::usage_error(kUsage, "--sort wants self or total, got '" + sort + "'");
  }
  if (files.size() != (args.has("diff") ? 2u : 1u)) {
    return flags::usage_error(kUsage, "wrong number of profile files");
  }
  if (args.has("diff")) return cmd_diff(files[0], files[1], top_n);
  return cmd_top(files[0], top_n, sort == "total");
}
