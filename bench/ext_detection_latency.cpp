// Extension bench: time-to-detection under asynchronous propagation.
//
// The paper scores detector configurations by whether they *ever* see an
// attack (fig. 7). With the discrete-event engine we can also ask how FAST
// each configuration sees it — hijack damage accrues until the alert fires.
// Per-link delays are uniform in [10ms, 200ms); an attack's detection
// latency is the earliest first_bogus_time among the probe ASes.
//
// Exit status 1 when any announcement hits the engine's event cap: latencies
// from a half-converged run would be reported as if they were measured.
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "bgp/event_engine.hpp"
#include "detect/probe_set.hpp"

using namespace bgpsim;
using namespace bgpsim::bench;

int main() {
  BenchEnv env = make_env(
      "ext_detection_latency",
      "Extension — detection latency (asynchronous engine)");
  const Scenario& scenario = env.scenario;
  const AsGraph& g = scenario.graph();

  const auto n_attacks =
      static_cast<std::uint32_t>(env_u64("BGPSIM_ATTACKS", 120));
  Rng rng(derive_seed(env.seed, 88));
  const auto& transits = scenario.transit();

  Rng probe_rng(derive_seed(env.seed, 77));  // same draw as the fig-7 bench
  const std::vector<ProbeSet> probe_sets{
      ProbeSet::tier1(scenario.tiers()),
      ProbeSet::bgpmon_style(g, 24, probe_rng),
      ProbeSet::degree_core(g, scenario.scaled_degree(500)),
  };

  EventEngineConfig cfg;
  cfg.policy = scenario.policy();
  cfg.delay_seed = derive_seed(env.seed, 89);
  EventEngine engine(g, cfg);

  std::vector<std::vector<double>> latencies(probe_sets.size());
  std::vector<std::uint32_t> missed(probe_sets.size(), 0);
  std::uint32_t harmless = 0;
  std::uint32_t unconverged = 0;

  // The asynchronous engine bypasses HijackSimulator::summarize (the usual
  // tick choke point), so this loop ticks the tracker itself.
  BGPSIM_PROGRESS(n_attacks);
  BGPSIM_PROGRESS_PHASE("detection.latency");
  for (std::uint32_t i = 0; i < n_attacks; ++i) {
    BGPSIM_PROGRESS_TICK();
    const AsId target = transits[rng.bounded(transits.size())];
    AsId attacker = transits[rng.bounded(transits.size())];
    if (attacker == target) attacker = transits[(i + 1) % transits.size()];

    engine.reset();
    const auto legit = engine.announce(target, Origin::Legit, 0.0);
    const double attack_time = legit.quiescent_time + 1.0;
    const auto bogus = engine.announce(attacker, Origin::Attacker, attack_time);
    if (!legit.converged || !bogus.converged) {
      ++unconverged;
      continue;
    }

    if (engine.count_origin(Origin::Attacker) <= 1) {
      ++harmless;  // nobody beyond the attacker accepted it
      continue;
    }
    for (std::size_t c = 0; c < probe_sets.size(); ++c) {
      double first = -1.0;
      for (const AsId probe : probe_sets[c].probes()) {
        const double t = engine.first_bogus_time(probe);
        if (t >= 0.0 && (first < 0.0 || t < first)) first = t;
      }
      if (first < 0.0) {
        ++missed[c];
      } else {
        latencies[c].push_back((first - attack_time) * 1000.0);  // ms
      }
    }
  }

  std::printf("\n%u attacks (%u polluted nobody and are excluded)\n",
              n_attacks, harmless);
  std::printf("%-34s %8s %10s %10s %10s %8s\n", "configuration", "detected",
              "mean ms", "median ms", "p95 ms", "missed");
  for (std::size_t c = 0; c < probe_sets.size(); ++c) {
    if (latencies[c].empty()) {
      std::printf("%-34s %8zu %10s %10s %10s %8u\n",
                  probe_sets[c].label().c_str(), latencies[c].size(), "-", "-",
                  "-", missed[c]);
      continue;
    }
    RunningStats stats;
    for (const double ms : latencies[c]) stats.add(ms);
    std::printf("%-34s %8zu %10.0f %10.0f %10.0f %8u\n",
                probe_sets[c].label().c_str(), latencies[c].size(), stats.mean(),
                quantile(latencies[c], 0.5), quantile(latencies[c], 0.95),
                missed[c]);
  }

  std::printf("\nshape checks:\n");
  const auto median = [&](std::size_t c) {
    return latencies[c].empty() ? 1e18 : quantile(latencies[c], 0.5);
  };
  print_paper_row("the degree core detects fastest (more, closer probes)",
                  "(new measurement)",
                  median(2) <= median(0) && median(2) <= median(1) ? "yes" : "NO");
  print_paper_row("miss ranking matches figure 7", "tier-1 worst",
                  missed[0] >= missed[2] ? "yes" : "NO");
  if (unconverged != 0) {
    std::fprintf(stderr, "FAIL: %u attack(s) hit the event cap before converging\n",
                 unconverged);
    return 1;
  }
  return 0;
}
