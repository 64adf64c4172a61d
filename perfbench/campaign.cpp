// Workload `campaign`: Monte-Carlo hijack-impact estimation (following
// Sermpezis et al., arXiv 2105.02346) with run_campaign over a 64-victim
// transit pool (4 MB of baselines, cache-resident), a top-20 ROV core and a
// scaled probe set, stopping early at a target CI. Each campaign runs at W
// workers and at 1 worker. This is warm repair + summarize + the sampler
// and estimators under the round-barrier driver; the service's network,
// JSON and per-request sorting do nearly nothing here.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/warm_repair.hpp"
#include "campaign/driver.hpp"
#include "campaign/sampler.hpp"
#include "defense/deployment.hpp"
#include "store/baseline.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bgpsim::AsId;

constexpr int kSetupReps = 15;
constexpr std::size_t kVictimPool = 64;
constexpr std::uint32_t kDeploymentTop = 20;
/// Full-scale probe count, scaled to the topology (19 at 8000 ASes).
constexpr std::uint32_t kProbesFullScale = 100;
/// Stop rule. With these the pool reaches the target CI after 6 rounds for
/// every workload seed tried, so time to CI moves only with speed.
constexpr double kTargetCi = 0.005;
constexpr std::uint64_t kBatch = 1024;
constexpr std::uint64_t kMinPerStratum = 8;
constexpr std::uint64_t kBudget = 100000;

/// The report with the wall-clock fields blanked: what must be identical
/// between runs of one spec at any worker count.
std::string deterministic_report(bgpsim::campaign::CampaignResult result) {
  result.wall_seconds = 0.0;
  result.samples_per_second = 0.0;
  result.workers = 0;
  return bgpsim::campaign::campaign_report_json(result);
}

}  // namespace

void run_campaign_workload(const Options& options, RunResult& result) {
  Tracer tracer;
  SpanLane* lane = options.trace ? &tracer.lane(0) : nullptr;

  // Set-up: topology generation plus the pool's baselines, repeated. The
  // pool is fixed by the topology seed, not the workload seed: the workload
  // seed picks the samples, and a fixed pool keeps the number of samples to
  // the target CI the same across workload seeds.
  std::optional<bgpsim::Scenario> scenario;
  std::shared_ptr<const bgpsim::store::BaselineStore> baselines;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    baselines.reset();
    scenario.reset();
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(lane, "topology.generate");
      scenario.emplace(make_scenario(options));
    }
    bgpsim::Rng pool_rng(bgpsim::derive_seed(options.topology_seed, 64));
    const std::vector<AsId> pool =
        pool_rng.sample_without_replacement(scenario->transit(), kVictimPool);
    {
      ScopedSpan span(lane, "store.baseline_compute");
      baselines = std::make_shared<const bgpsim::store::BaselineStore>(
          bgpsim::store::BaselineStore::compute(scenario->graph(),
                                                scenario->policy(), pool));
    }
    setup_s.push_back(seconds_since(t0));
  }
  const bgpsim::AsGraph& g = scenario->graph();

  bgpsim::campaign::CampaignSpec spec;
  spec.seed = options.seed;
  spec.sample_budget = kBudget;
  spec.target_ci = kTargetCi;
  spec.batch = kBatch;
  spec.min_samples_per_stratum = kMinPerStratum;
  spec.deployment_top = kDeploymentTop;
  spec.probes = scenario->scaled_count(kProbesFullScale);

  // One campaign at `workers`, returning its wall time. `round_lane`
  // (traced W runs) receives a span per round, from the previous barrier (or
  // the start) to this one. Touches nothing shared, so several can run side
  // by side; check() then compares each report with the first one.
  const auto run_one = [&](unsigned workers, SpanLane* round_lane,
                           bgpsim::campaign::CampaignResult& out) {
    bgpsim::campaign::CampaignSpec run_spec = spec;
    run_spec.workers = workers;
    std::int64_t last = now_ns();
    const std::int64_t start = last;
    ScopedSpan run_span(round_lane, "campaign.run");
    out = bgpsim::campaign::run_campaign(
        *scenario, baselines, run_spec, nullptr,
        [&](const bgpsim::campaign::CampaignProgress&) {
          if (round_lane == nullptr) return;
          const std::int64_t now = now_ns();
          round_lane->record("campaign.round", run_span.id(), 0, last, now);
          last = now;
        });
    return seconds_since(start);
  };
  std::optional<std::string> reference;
  std::uint64_t samples_to_ci = 0;
  const auto check = [&](const bgpsim::campaign::CampaignResult& out) {
    const std::string report = deterministic_report(out);
    if (!reference) reference = report;
    samples_to_ci = out.samples_used;
    result.check(report == *reference && out.stop_reason == "target_ci_reached" &&
                 out.warm_samples == out.samples_used);
  };
  // Samples and seconds summed over campaigns. Rates are ratios of these
  // sums: campaign times are bimodal on a shared VM (one thread carries
  // the heaviest stratum and sets each round's time), and a median would
  // flip between the modes.
  struct Totals {
    std::uint64_t samples = 0;
    double seconds = 0.0;
    double rate() const { return static_cast<double>(samples) / seconds; }
  };
  Totals parallel;  // W-worker campaigns (untraced)
  Totals serial;    // 1-worker campaigns
  // A W-worker campaign, added to `into`: returns its wall time.
  const auto parallel_run = [&](SpanLane* round_lane, Totals& into) {
    bgpsim::campaign::CampaignResult out;
    const double wall_s = run_one(options.workers, round_lane, out);
    check(out);
    into.samples += out.samples_used;
    into.seconds += wall_s;
    return wall_s;
  };
  // W 1-worker campaigns side by side. Their rate is one thread's, taken on
  // all W CPUs at once because a lone thread's speed on a shared VM drifts
  // far more than W threads' average.
  const auto serial_runs = [&]() {
    std::vector<bgpsim::campaign::CampaignResult> outs(options.workers);
    std::vector<double> walls(options.workers, 0.0);
    bgpsim::parallel_chunks(
        options.workers, options.workers,
        [&](unsigned, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            walls[i] = run_one(1, nullptr, outs[i]);
          }
        });
    for (std::size_t i = 0; i < outs.size(); ++i) {
      check(outs[i]);
      serial.samples += outs[i].samples_used;
      serial.seconds += walls[i];
    }
  };

  if (!options.trace) {
    // Cycles of two W-worker campaigns and one batch of side-by-side
    // 1-worker campaigns: the W runs also give the latency percentiles, so
    // they get more samples. The clock is checked before every step.
    std::vector<double> wall_ms;
    const std::int64_t start = now_ns();
    for (int step = 0; serial.samples == 0 || seconds_since(start) < options.seconds;
         ++step) {
      if (step % 3 == 2) {
        serial_runs();
      } else {
        wall_ms.push_back(parallel_run(nullptr, parallel) * 1e3);
      }
    }
    const Summary latency = summarize(wall_ms);
    std::printf("  %zu campaigns at W=%u, %llu samples each; time to CI "
                "p50/p90 over %zu campaigns\n",
                wall_ms.size(), options.workers,
                static_cast<unsigned long long>(samples_to_ci), latency.n);
    result.metrics["setup_s"] = median(setup_s);
    result.metrics["throughput_per_s"] = parallel.rate();
    result.metrics["serial_throughput_per_s"] = serial.rate();
    result.metrics["latency_p50_ms"] = latency.p50;
    result.metrics["latency_p90_ms"] = latency.p90;
    return;
  }

  // Traced: untraced and traced W runs (overhead), one batch of 1-worker
  // runs, then a replay of drawn samples with one span per layer call.
  // Untraced and traced runs alternate in both orders, so drift over the
  // run does not read as tracing overhead.
  const std::int64_t start = now_ns();
  Totals traced;
  for (const bool traced_run : {false, true, true, false}) {
    parallel_run(traced_run ? lane : nullptr, traced_run ? traced : parallel);
  }
  serial_runs();

  const std::vector<bgpsim::campaign::Stratum> strata =
      bgpsim::campaign::build_attacker_strata(*scenario);
  const bgpsim::campaign::CampaignSampler sampler(spec.seed, baselines->targets());
  const bgpsim::FilterSet core =
      bgpsim::to_filter_set(g, bgpsim::top_k_deployment(g, kDeploymentTop));
  bgpsim::HijackSimulator sim(g, scenario->sim_config());
  sim.attach_baseline(baselines);
  sim.set_validators(core.bitset());
  std::vector<double> cumulative;
  for (const auto& stratum : strata) {
    cumulative.push_back((cumulative.empty() ? 0.0 : cumulative.back()) +
                         stratum.weight);
  }
  std::vector<std::uint64_t> next_index(strata.size(), 0);
  bgpsim::Rng mix_rng(bgpsim::derive_seed(options.seed, 3));
  std::vector<double> overhead_us;
  std::uint64_t attacks = 0;
  std::uint64_t warm_hits = 0;
  std::uint64_t fallbacks = 0;
  const double replay_budget_s = std::max(1.0, options.seconds - seconds_since(start));
  const std::int64_t replay_start = now_ns();
  while (attacks < 64 || seconds_since(replay_start) < replay_budget_s) {
    // Strata in proportion to their weight, as the campaign draws them.
    const std::size_t s = mix_rng.sample_cumulative(cumulative);
    bgpsim::campaign::SamplePair pair;
    {
      ScopedSpan span(lane, "campaign.sampler_draw");
      pair = sampler.draw(strata[s], static_cast<std::uint32_t>(s), next_index[s]++);
    }
    const std::int64_t t0 = now_ns();
    {
      ScopedSpan span(lane, "hijack.attack");
      (void)sim.attack(pair.victim, pair.attacker);
    }
    const double attack_us = static_cast<double>(now_ns() - t0) / 1e3;
    ++attacks;
    warm_hits += sim.last_attack_warm();
    bgpsim::RouteTable table = *baselines->find(pair.victim);
    const std::int64_t t1 = now_ns();
    bool repaired = false;
    {
      ScopedSpan span(lane, "bgp.warm_repair");
      repaired = bgpsim::warm_hijack_repair(g, scenario->policy(), pair.victim,
                                            pair.attacker, 1, &core.bitset(),
                                            table);
    }
    overhead_us.push_back(attack_us - static_cast<double>(now_ns() - t1) / 1e3);
    fallbacks += !repaired;
  }

  const Summary rounds = summarize(tracer.durations_us("campaign.round"));
  const Summary repair = summarize(tracer.durations_us("bgp.warm_repair"));
  auto& m = result.metrics;
  m["topology.generate_s"] = median(tracer.durations_us("topology.generate")) / 1e6;
  m["store.baseline_ms_per_target"] =
      median(tracer.durations_us("store.baseline_compute")) / 1e3 /
      static_cast<double>(baselines->size());
  m["store.baseline_mb"] = static_cast<double>(baselines->memory_bytes()) / 1e6;
  m["bgp.warm_repair_us_p50"] = repair.p50;
  m["bgp.warm_repair_us_p90"] = repair.p90;
  m["bgp.warm_fallback_ratio"] =
      static_cast<double>(fallbacks) / static_cast<double>(attacks);
  m["hijack.attack_us_p50"] = median(tracer.durations_us("hijack.attack"));
  m["hijack.overhead_us"] = median(overhead_us);
  m["hijack.warm_hit_ratio"] =
      static_cast<double>(warm_hits) / static_cast<double>(attacks);
  m["campaign.round_ms_p50"] = us_to_ms(rounds.p50);
  m["campaign.round_ms_max"] = us_to_ms(rounds.max);
  m["campaign.scaling_eff"] = parallel.rate() / (options.workers * serial.rate());
  m["campaign.sampler_draw_us"] = median(tracer.durations_us("campaign.sampler_draw"));
  m["campaign.samples_to_ci"] = static_cast<double>(samples_to_ci);
  m["trace.throughput_ratio"] = traced.rate() / parallel.rate();
  std::printf("  campaign.round n=%zu, serial replay n=%llu, samples to CI %llu\n",
              rounds.n, static_cast<unsigned long long>(attacks),
              static_cast<unsigned long long>(samples_to_ci));
  if (!tracer.write_json(span_dump_path(options))) {
    throw std::runtime_error("cannot write " + span_dump_path(options));
  }
}

}  // namespace perfbench
