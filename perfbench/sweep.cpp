// Workload `sweep`: the paper's own evaluation (figs. 2-6). A few seeded
// victims, one of each topological class, are attacked from every transit
// AS under origin-validation cores {none, top-20, top-100}, with
// VulnerabilityAnalyzer::sweep on W threads. Nearly all of the time is in
// the cold EquilibriumEngine: warm repair, the service and campaigns do no
// work here, so a change to those must leave this workload unchanged.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/vulnerability.hpp"
#include "bgp/equilibrium_engine.hpp"
#include "defense/deployment.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "topology/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bgpsim::AsId;

constexpr int kSetupReps = 41;
constexpr std::size_t kCoreSizes[] = {0, 20, 100};
/// Attackers per curve replayed serially in one batch of the serial leg.
constexpr std::size_t kReplayBatch = 16;

struct Victim {
  const char* label;
  AsId id;
};

struct Curve {
  Victim victim;
  std::size_t core;                       ///< top-k ROV core size (0 = none)
  const bgpsim::FilterSet* filters;       ///< nullptr when core == 0
};

AsId pick(const std::vector<AsId>& candidates, bgpsim::Rng& rng,
          const char* what) {
  if (candidates.empty()) {
    throw std::runtime_error(std::string("topology has no ") + what);
  }
  return candidates[rng.bounded(candidates.size())];
}

/// One victim per class the paper's figures use: a stub customer of a
/// tier-1 (fig. 2), the deepest stubs (fig. 4), a multi-homed stub, and a
/// tier-2 (fig. 3).
std::vector<Victim> pick_victims(const bgpsim::Scenario& scenario,
                                 std::uint64_t seed) {
  const bgpsim::AsGraph& g = scenario.graph();
  const auto& tiers = scenario.tiers();
  const auto& depth = scenario.depth();
  bgpsim::Rng rng(bgpsim::derive_seed(seed, 1));

  bgpsim::TargetQuery tier1_customer;
  tier1_customer.depth = 1;
  tier1_customer.attached_tier = 1;

  std::uint16_t deepest = 0;
  for (AsId v = 0; v < g.num_ases(); ++v) {
    if (bgpsim::is_stub(g, v)) deepest = std::max(deepest, depth[v]);
  }
  bgpsim::TargetQuery deep_stub;
  deep_stub.depth = deepest;

  bgpsim::TargetQuery multi_homed;
  multi_homed.depth = 2;
  multi_homed.multi_homed = true;

  return {
      {"tier1_customer",
       pick(bgpsim::find_targets(g, tiers, depth, tier1_customer), rng,
            "stub customer of a tier-1")},
      {"deep_stub",
       pick(bgpsim::find_targets(g, tiers, depth, deep_stub), rng, "deep stub")},
      {"multi_homed_stub",
       pick(bgpsim::find_targets(g, tiers, depth, multi_homed), rng,
            "multi-homed stub")},
      {"tier2", pick(tiers.tier2, rng, "tier-2 AS")},
  };
}

/// Polluted-AS count of a converged table, as HijackSimulator counts it.
std::uint32_t polluted(const bgpsim::RouteTable& table, AsId attacker) {
  std::uint32_t count = 0;
  for (AsId v = 0; v < table.routes.size(); ++v) {
    count += table.routes[v].origin == bgpsim::Origin::Attacker && v != attacker;
  }
  return count;
}

/// One single-threaded replayer of the serial leg.
class Replayer {
 public:
  Replayer(const bgpsim::Scenario& scenario, std::uint64_t seed,
           std::size_t first_curve)
      : sim_(scenario.graph(), scenario.sim_config()),
        engine_(scenario.graph(), scenario.policy()),
        rng_(seed),
        next_curve_(first_curve) {}

  /// Replay batches of attacks, curve after curve, for `budget_s` seconds.
  /// `lane` (traced runs) gets a span per attack and per bare-engine run.
  void run(double budget_s, const std::vector<Curve>& curves,
           const std::vector<AsId>& attackers,
           const std::vector<std::vector<std::uint32_t>>& reference,
           SpanLane* lane) {
    const std::int64_t start = now_ns();
    while (seconds_since(start) < budget_s) {
      const std::size_t index = next_curve_++ % curves.size();
      const Curve& curve = curves[index];
      sim_.set_validators(curve.filters != nullptr
                              ? std::optional<bgpsim::ValidatorSet>(
                                    curve.filters->bitset())
                              : std::nullopt);
      const bgpsim::ValidatorSet* validators =
          curve.filters != nullptr ? &curve.filters->bitset() : nullptr;
      // The analyzer skips the victim itself among the attackers.
      swept_.clear();
      for (const AsId a : attackers) {
        if (a != curve.victim.id) swept_.push_back(a);
      }
      for (std::size_t r = 0; r < kReplayBatch; ++r) {
        const std::size_t i = rng_.bounded(swept_.size());
        const std::int64_t t0 = now_ns();
        std::uint32_t got = 0;
        {
          ScopedSpan span(lane, "hijack.attack");
          got = sim_.attack(curve.victim.id, swept_[i]).polluted_ases;
        }
        const double attack_s = seconds_since(t0);
        busy_s += attack_s;
        ++attacks;
        ++checked;
        mismatched += got != reference[index][i];
        if (lane != nullptr) {
          const std::int64_t t1 = now_ns();
          {
            ScopedSpan span(lane, "bgp.cold_hijack");
            engine_.compute_hijack(curve.victim.id, swept_[i], validators,
                                   table_);
          }
          overhead_us.push_back(attack_s * 1e6 -
                                static_cast<double>(now_ns() - t1) / 1e3);
          ++checked;
          mismatched += polluted(table_, swept_[i]) != reference[index][i];
        }
      }
    }
  }

  std::uint64_t attacks = 0;  ///< HijackSimulator::attack calls
  double busy_s = 0.0;        ///< their total time
  std::uint64_t checked = 0;
  std::uint64_t mismatched = 0;
  std::vector<double> overhead_us;  ///< attack minus bare engine, traced only

 private:
  bgpsim::HijackSimulator sim_;
  bgpsim::EquilibriumEngine engine_;
  bgpsim::RouteTable table_;
  bgpsim::Rng rng_;
  std::size_t next_curve_;
  std::vector<AsId> swept_;
};

}  // namespace

void run_sweep(const Options& options, RunResult& result) {
  Tracer tracer(1 + options.workers);  // 0: this thread, 1..W: replayers
  SpanLane* lane = options.trace ? &tracer.lane(0) : nullptr;

  // Set-up: topology generation, repeated; the median is setup_s.
  std::optional<bgpsim::Scenario> scenario;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    scenario.reset();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(lane, "topology.generate");
      scenario.emplace(make_scenario(options));
    }
    setup_s.push_back(seconds_since(t0));
  }
  const bgpsim::AsGraph& g = scenario->graph();
  const std::vector<AsId>& attackers = scenario->transit();

  const std::vector<Victim> victims = pick_victims(*scenario, options.seed);
  std::vector<bgpsim::FilterSet> cores;
  for (const std::size_t k : kCoreSizes) {
    cores.push_back(bgpsim::to_filter_set(g, bgpsim::top_k_deployment(g, k)));
  }
  std::vector<Curve> curves;
  for (const Victim& victim : victims) {
    for (std::size_t c = 0; c < std::size(kCoreSizes); ++c) {
      curves.push_back({victim, kCoreSizes[c],
                        kCoreSizes[c] == 0 ? nullptr : &cores[c]});
    }
  }
  for (const Victim& victim : victims) {
    std::printf("  victim %-17s AS%u (depth %u)\n", victim.label,
                g.asn(victim.id), scenario->depth()[victim.id]);
  }

  // Parallel leg: whole curves, cycling through the victim x core grid.
  // The first time a curve runs its pollution vector is kept; every repeat
  // must reproduce it exactly, and the serial leg below replays samples.
  bgpsim::VulnerabilityAnalyzer analyzer(g, scenario->sim_config(),
                                         options.workers);
  std::vector<std::vector<std::uint32_t>> reference(curves.size());
  std::size_t next_curve = 0;
  const auto parallel_leg = [&](double budget_s, SpanLane* leg_lane,
                                std::vector<double>& rates,
                                std::vector<double>& curve_ms) {
    const std::int64_t start = now_ns();
    // The first leg runs every curve at least once.
    while (next_curve < curves.size() || seconds_since(start) < budget_s) {
      const std::size_t index = next_curve++ % curves.size();
      const Curve& curve = curves[index];
      const std::int64_t t0 = now_ns();
      bgpsim::VulnerabilityCurve out;
      {
        ScopedSpan span(leg_lane, "analysis.sweep");
        out = analyzer.sweep(curve.victim.id, attackers, curve.filters);
      }
      const double dt = seconds_since(t0);
      rates.push_back(static_cast<double>(out.attackers.size()) / dt);
      curve_ms.push_back(dt * 1e3);
      result.attempted += out.pollution.size();
      if (reference[index].empty()) {
        reference[index] = out.pollution;
      } else {
        for (std::size_t i = 0; i < out.pollution.size(); ++i) {
          result.failed += out.pollution[i] != reference[index][i];
        }
      }
    }
  };

  // Serial leg: W single-threaded replayers side by side, each replaying
  // a seeded sample of every curve's attacks one at a time on its own
  // HijackSimulator (and, traced, its own bare EquilibriumEngine). Every
  // replay must match the parallel pollution vector. The reported rate is
  // one thread's, taken on all W CPUs at once: on a shared 4-vCPU VM a lone
  // thread's rate swung by ±13% between 1-s windows while W threads side by
  // side held within ±1.5%.
  std::vector<std::unique_ptr<Replayer>> replayers;
  for (unsigned t = 0; t < options.workers; ++t) {
    replayers.push_back(std::make_unique<Replayer>(
        *scenario, bgpsim::derive_seed(bgpsim::derive_seed(options.seed, 2), t),
        t));
  }
  const auto serial_leg = [&](double budget_s) {
    bgpsim::parallel_chunks(
        replayers.size(), options.workers,
        [&](unsigned, std::size_t begin, std::size_t end) {
          for (std::size_t t = begin; t < end; ++t) {
            replayers[t]->run(budget_s, curves, attackers, reference,
                              options.trace ? &tracer.lane(1 + t) : nullptr);
          }
        });
  };

  // Parallel and serial legs alternate in rounds, spreading every metric
  // over the whole run so that slow drift in machine speed averages out;
  // traced and untraced parallel legs alternate in both orders too, so
  // drift does not read as tracing overhead.
  std::vector<double> rates;
  std::vector<double> curve_ms;
  std::vector<double> traced_rates;
  std::vector<double> traced_ms;
  const int rounds = options.trace ? 2 : 4;
  const double round_s = options.seconds / rounds;
  for (int round = 0; round < rounds; ++round) {
    if (!options.trace) {
      parallel_leg(round_s * 0.75, nullptr, rates, curve_ms);
    } else {
      // Untraced first in even rounds, traced first in odd ones.
      for (const bool traced : {round % 2 == 1, round % 2 == 0}) {
        parallel_leg(round_s * 0.3, traced ? lane : nullptr,
                     traced ? traced_rates : rates, traced ? traced_ms : curve_ms);
      }
    }
    serial_leg(round_s * (options.trace ? 0.4 : 0.25));
  }
  if (options.trace) {
    result.metrics["trace.throughput_ratio"] =
        median(traced_rates) / median(rates);
  }

  std::uint64_t replays = 0;
  double replay_s = 0.0;
  std::vector<double> overhead_us;
  for (const auto& replayer : replayers) {
    replays += replayer->attacks;
    replay_s += replayer->busy_s;
    result.attempted += replayer->checked;
    result.failed += replayer->mismatched;
    overhead_us.insert(overhead_us.end(), replayer->overhead_us.begin(),
                       replayer->overhead_us.end());
  }
  const double serial_rate = static_cast<double>(replays) / replay_s;
  const Summary curve_latency = summarize(curve_ms);
  std::printf("  %zu curves (%zu attackers each) on W=%u threads, %llu "
              "replays on W single-threaded replayers\n",
              curve_ms.size(), attackers.size() - 1, options.workers,
              static_cast<unsigned long long>(replays));

  if (!options.trace) {
    result.metrics["setup_s"] = median(setup_s);
    result.metrics["throughput_per_s"] = median(rates);
    result.metrics["serial_throughput_per_s"] = serial_rate;
    result.metrics["latency_p50_ms"] = curve_latency.p50;
    result.metrics["latency_p90_ms"] = curve_latency.p90;
    return;
  }
  const Summary cold = summarize(tracer.durations_us("bgp.cold_hijack"));
  result.metrics["topology.generate_s"] =
      median(tracer.durations_us("topology.generate")) / 1e6;
  result.metrics["bgp.cold_hijack_us_p50"] = cold.p50;
  result.metrics["bgp.cold_hijack_us_p90"] = cold.p90;
  result.metrics["hijack.attack_us_p50"] =
      median(tracer.durations_us("hijack.attack"));
  result.metrics["hijack.overhead_us"] = median(overhead_us);
  result.metrics["analysis.sweep_s"] =
      median(tracer.durations_us("analysis.sweep")) / 1e6;
  result.metrics["analysis.scaling_eff"] =
      median(rates) / (options.workers * serial_rate);
  std::printf("  bgp.cold_hijack n=%zu, analysis.sweep n=%zu\n", cold.n,
              tracer.durations_us("analysis.sweep").size());
  if (!tracer.write_json(span_dump_path(options))) {
    throw std::runtime_error("cannot write " + span_dump_path(options));
  }
}

}  // namespace perfbench
