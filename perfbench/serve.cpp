// Workload `serve`: the what-if service under load. A WhatIfService +
// QueryServer with W workers over a snapshot holding the production default
// baselines (every transit AS), driven by W closed-loop keep-alive clients
// sending a seeded /v1/attack stream: transit victims (all warm), transit
// attackers, deployment_top in {0, 20, 100}, probes in {0, 16} and a forged
// origin on one request in four. This is where the network, JSON,
// per-request top-k sorting, warm repair and the generation-engine replay
// behind detected probe requests sit. Closed loop, because the callers
// (scripts, notebooks, a dashboard) each wait for their answer.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/warm_repair.hpp"
#include "defense/deployment.hpp"
#include "detect/detector.hpp"
#include "detect/probe_set.hpp"
#include "http_client.hpp"
#include "obs/json_parse.hpp"
#include "serve/query_server.hpp"
#include "serve/service.hpp"
#include "store/baseline.hpp"
#include "store/snapshot.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bgpsim::AsId;

constexpr int kSetupReps = 7;
/// Detected probe requests each client sees answered before timing starts.
/// HijackSimulator builds its generation engine lazily on the first
/// detected-probe replay; with 16 per client, the chance that one of 4
/// workers got none of the 64 replays is 4 x (3/4)^64, about 4e-8.
constexpr int kWarmupReplaysPerClient = 16;
/// Bound on warm-up requests per client, should detections never come.
constexpr std::uint64_t kWarmupMaxRequests = 1024;
/// One timed request in this many is re-checked in process after the run.
constexpr std::uint64_t kVerifyEvery = 16;
/// Cap on those re-checks (each is a cold convergence).
constexpr std::size_t kMaxVerified = 256;
constexpr std::uint32_t kDeploymentTops[] = {0, 20, 100};
constexpr std::uint32_t kProbeCount = 16;

struct AttackSpec {
  AsId victim = bgpsim::kInvalidAs;
  AsId attacker = bgpsim::kInvalidAs;
  std::uint32_t deployment_top = 0;
  std::uint32_t probes = 0;
  bool forged = false;
};

/// Seeded /v1/attack stream. Request kinds come in shuffled blocks of 24
/// that hold every deployment_top x probes pair with a forged origin on one
/// request in four, so every stream carries the same mix and seeds differ
/// only in their victim/attacker pairs. Warm-up streams send only probe
/// requests without forged origins: those replay on the generation engine.
class RequestStream {
 public:
  RequestStream(std::uint64_t seed, const std::vector<AsId>& transit, bool warmup)
      : rng_(seed), transit_(transit), warmup_(warmup) {}

  AttackSpec next() {
    if (pos_ == block_.size()) refill();
    AttackSpec spec = block_[pos_++];
    spec.victim = transit_[rng_.bounded(transit_.size())];
    do {
      spec.attacker = transit_[rng_.bounded(transit_.size())];
    } while (spec.attacker == spec.victim);
    return spec;
  }

 private:
  void refill() {
    block_.clear();
    for (const std::uint32_t top : kDeploymentTops) {
      for (const std::uint32_t probes : {0u, kProbeCount}) {
        for (int slot = 0; slot < 4; ++slot) {
          AttackSpec spec;
          spec.deployment_top = top;
          spec.probes = warmup_ ? kProbeCount : probes;
          spec.forged = !warmup_ && slot == 0;
          block_.push_back(spec);
        }
      }
    }
    rng_.shuffle(block_);
    pos_ = 0;
  }

  bgpsim::Rng rng_;
  const std::vector<AsId>& transit_;
  bool warmup_;
  std::vector<AttackSpec> block_;
  std::size_t pos_ = 0;
};

std::string request_body(const bgpsim::AsGraph& g, const AttackSpec& spec) {
  std::string body = "{\"victim\": ";
  body += std::to_string(g.asn(spec.victim));
  body += ", \"attacker\": ";
  body += std::to_string(g.asn(spec.attacker));
  if (spec.deployment_top > 0) {
    body += ", \"deployment_top\": ";
    body += std::to_string(spec.deployment_top);
  }
  if (spec.probes > 0) {
    body += ", \"probes\": ";
    body += std::to_string(spec.probes);
  }
  if (spec.forged) body += ", \"forged_origin\": true";
  body += "}";
  return body;
}

/// A 200 answer marked warm, with its polluted-AS count; nullopt otherwise.
/// `detected`, when given, receives whether the probes detected the attack.
std::optional<std::uint64_t> warm_pollution(int status, const std::string& body,
                                            bool* detected = nullptr) {
  if (status != 200) return std::nullopt;
  try {
    const bgpsim::obs::JsonValue doc = bgpsim::obs::JsonValue::parse(body);
    const bgpsim::obs::JsonValue* warm = doc.find("warm");
    const bgpsim::obs::JsonValue* polluted = doc.find("polluted_ases");
    if (warm == nullptr || !warm->as_bool() || polluted == nullptr ||
        !polluted->is_number()) {
      return std::nullopt;
    }
    if (detected != nullptr) {
      const bgpsim::obs::JsonValue* d = doc.find_path({"detection", "detected"});
      *detected = d != nullptr && d->as_bool();
    }
    return polluted->as_u64();
  } catch (const bgpsim::ParseError&) {
    return std::nullopt;
  }
}

struct Verify {
  AttackSpec spec;
  std::uint64_t polluted = 0;
};

/// What one closed-loop client saw during a leg.
struct ClientLog {
  std::vector<double> latency_us;
  std::vector<Verify> verify;
  std::uint64_t requests = 0;
  std::uint64_t failures = 0;
  std::uint64_t connects = 0;
};

/// Trace id shared by the dispatch span and the layer-replay spans of
/// request `r` of dispatcher `t`.
std::uint64_t trace_id(std::size_t t, std::size_t r) {
  return (static_cast<std::uint64_t>(t) << 32) | (r + 1);
}

/// One single-threaded in-process dispatcher of the serial leg.
struct Dispatcher {
  Dispatcher(std::uint64_t seed, const std::vector<AsId>& transit)
      : stream(seed, transit, false) {}

  /// Dispatch requests one at a time for `budget_s` seconds as server
  /// worker `worker` would. `lane` (traced runs) gets a span per dispatch
  /// and per response parse.
  void run(double budget_s, const bgpsim::serve::Router& router,
           const bgpsim::AsGraph& g, unsigned worker, SpanLane* lane) {
    const std::int64_t start = now_ns();
    while (seconds_since(start) < budget_s) {
      const AttackSpec spec = stream.next();
      bgpsim::net::HttpRequest request;
      request.method = "POST";
      request.target = "/v1/attack";
      request.body = request_body(g, spec);
      bgpsim::serve::RequestContext ctx;
      ctx.worker = worker;
      ctx.route = "attack";
      const std::int64_t t0 = now_ns();
      bgpsim::serve::HttpResponse response;
      {
        ScopedSpan span(lane, "serve.dispatch", 0, trace_id(worker, specs.size()));
        response = router.dispatch(request, ctx);
      }
      busy_s += seconds_since(t0);
      specs.push_back(spec);
      std::optional<std::uint64_t> polluted;
      {
        ScopedSpan span(lane, "obs.json_parse");
        polluted = warm_pollution(response.status, response.body);
      }
      failures += !polluted.has_value();
    }
  }

  RequestStream stream;
  std::vector<AttackSpec> specs;  ///< every request dispatched, in order
  double busy_s = 0.0;            ///< total dispatch time
  std::uint64_t failures = 0;     ///< not a warm 200
};

/// Replays the attack handler's layer calls for one request at a time,
/// with a span around each call (traced runs only).
class LayerReplayer {
 public:
  struct Counts {
    std::uint64_t requests = 0;
    std::uint64_t top_k_calls = 0;
    std::uint64_t with_probes = 0;
    std::uint64_t replays = 0;  ///< generation-engine replays
    std::uint64_t warm_hits = 0;
    std::uint64_t fallbacks = 0;  ///< warm repairs that gave up

    Counts& operator+=(const Counts& o) {
      requests += o.requests;
      top_k_calls += o.top_k_calls;
      with_probes += o.with_probes;
      replays += o.replays;
      warm_hits += o.warm_hits;
      fallbacks += o.fallbacks;
      return *this;
    }
  };

  LayerReplayer(const bgpsim::Scenario& scenario,
                std::shared_ptr<const bgpsim::store::BaselineStore> baselines,
                SpanLane* lane)
      : scenario_(scenario),
        baselines_(std::move(baselines)),
        sim_(scenario.graph(), scenario.sim_config()),
        lane_(lane) {
    sim_.attach_baseline(baselines_);
  }

  void replay(const AttackSpec& spec, std::uint64_t trace) {
    const bgpsim::AsGraph& g = scenario_.graph();
    const std::string body = request_body(g, spec);
    bgpsim::FilterSet filters(g.num_ases());
    double attack_us = 0.0;
    ++counts.requests;
    {
      ScopedSpan root(lane_, "serve.replay", 0, trace);
      {
        ScopedSpan span(lane_, "obs.json_parse", root.id(), trace);
        (void)bgpsim::obs::JsonValue::parse(body);
      }
      if (spec.deployment_top > 0) {
        ++counts.top_k_calls;
        bgpsim::DeploymentPlan plan;
        {
          ScopedSpan span(lane_, "defense.top_k", root.id(), trace);
          plan = bgpsim::top_k_deployment(g, spec.deployment_top);
        }
        filters.add_all(plan.deployers);
      }
      sim_.set_validators(filters.count() > 0
                              ? std::optional<bgpsim::ValidatorSet>(filters.bitset())
                              : std::nullopt);
      bgpsim::AttackOptions attack_options;
      attack_options.forged_origin = spec.forged;
      {
        const std::int64_t t0 = now_ns();
        ScopedSpan span(lane_, "hijack.attack", root.id(), trace);
        (void)sim_.attack_ex(spec.victim, spec.attacker, attack_options);
        attack_us = static_cast<double>(now_ns() - t0) / 1e3;
      }
      counts.warm_hits += sim_.last_attack_warm();
      if (spec.probes > 0) {
        ++counts.with_probes;
        std::optional<bgpsim::ProbeSet> probes;
        {
          ScopedSpan span(lane_, "detect.probe_top_k", root.id(), trace);
          probes.emplace(bgpsim::ProbeSet::top_k(g, spec.probes));
        }
        bool detected = false;
        {
          ScopedSpan span(lane_, "detect.evaluate", root.id(), trace);
          detected = bgpsim::evaluate_detection(sim_.routes(), *probes).detected();
        }
        if (detected && !spec.forged) {
          ++counts.replays;
          bgpsim::PropagationTrace propagation;
          ScopedSpan span(lane_, "bgp.generation_replay", root.id(), trace);
          sim_.attack_with_trace(spec.victim, spec.attacker, propagation);
          (void)bgpsim::first_detection_generation(propagation, *probes);
        }
      }
    }
    // The engine step of the attack above, alone: warm repair on a copy of
    // the stored baseline (the copy is not timed).
    bgpsim::RouteTable table = *baselines_->find(spec.victim);
    const std::int64_t t0 = now_ns();
    bool repaired = false;
    {
      ScopedSpan span(lane_, "bgp.warm_repair", 0, trace);
      repaired = bgpsim::warm_hijack_repair(
          g, scenario_.policy(), spec.victim, spec.attacker, spec.forged ? 2 : 1,
          filters.count() > 0 ? &filters.bitset() : nullptr, table);
    }
    overhead_us.push_back(attack_us - static_cast<double>(now_ns() - t0) / 1e3);
    counts.fallbacks += !repaired;
  }

  Counts counts;
  std::vector<double> overhead_us;  ///< attack_ex minus its warm repair

 private:
  const bgpsim::Scenario& scenario_;
  std::shared_ptr<const bgpsim::store::BaselineStore> baselines_;
  bgpsim::HijackSimulator sim_;
  SpanLane* lane_;
};

/// Removes the snapshot file however the run ends.
struct FileGuard {
  std::string path;
  ~FileGuard() {
    std::error_code ignored;
    std::filesystem::remove(path, ignored);
  }
};

/// Converge every transit baseline on W threads and write the snapshot.
/// Untimed preparation: the file is written fresh on every run, so a stale
/// file never outlives a snapshot format change. Each part is released once
/// merged, which keeps the preparation's memory peak near the service's.
bgpsim::store::BaselineStore prepare_snapshot(const bgpsim::Scenario& scenario,
                                              unsigned workers,
                                              const std::string& path) {
  const std::vector<AsId>& targets = scenario.transit();
  std::vector<bgpsim::store::BaselineStore> parts(workers);
  bgpsim::parallel_chunks(
      targets.size(), workers,
      [&](unsigned worker, std::size_t begin, std::size_t end) {
        parts[worker] = bgpsim::store::BaselineStore::compute(
            scenario.graph(), scenario.policy(),
            std::span<const AsId>(targets).subspan(begin, end - begin));
      });
  bgpsim::store::Snapshot snapshot;
  snapshot.graph = scenario.graph();
  snapshot.params = scenario.snapshot_params();
  for (bgpsim::store::BaselineStore& part : parts) {
    for (const AsId target : part.targets()) {
      snapshot.baselines.put(target, *part.find(target));
    }
    part = bgpsim::store::BaselineStore();
  }
  bgpsim::store::save_snapshot(path, snapshot);
  return std::move(snapshot.baselines);
}

}  // namespace

void run_serve(const Options& options, RunResult& result) {
  const unsigned W = options.workers;
  // Lane 0: this thread. Lanes 1..W: the clients, then the dispatchers and
  // layer replayers of the same index.
  Tracer tracer(1 + W);
  SpanLane* lane = options.trace ? &tracer.lane(0) : nullptr;

  const bgpsim::Scenario scenario = make_scenario(options);
  const bgpsim::AsGraph& g = scenario.graph();
  const std::vector<AsId>& transit = scenario.transit();
  FileGuard snapshot_file{options.workdir + "/serve-" +
                          std::to_string(getpid()) + ".snap"};
  // Only the traced run's in-process layer replay reads the baselines
  // directly; the untraced run drops them before set-up.
  std::shared_ptr<const bgpsim::store::BaselineStore> baselines;
  {
    bgpsim::store::BaselineStore prepared =
        prepare_snapshot(scenario, W, snapshot_file.path);
    if (options.trace) {
      baselines = std::make_shared<const bgpsim::store::BaselineStore>(
          std::move(prepared));
    }
  }

  // Set-up: load the snapshot, build the service, start the server.
  std::vector<double> setup_s;
  double baseline_mb = 0.0;
  std::unique_ptr<bgpsim::serve::WhatIfService> service;
  std::unique_ptr<bgpsim::serve::QueryServer> server;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    server.reset();
    service.reset();
    const std::int64_t t0 = now_ns();
    std::optional<bgpsim::store::Snapshot> snapshot;
    {
      ScopedSpan span(lane, "store.load_snapshot");
      snapshot.emplace(bgpsim::store::load_snapshot(snapshot_file.path));
    }
    baseline_mb = static_cast<double>(snapshot->baselines.memory_bytes()) / 1e6;
    service = std::make_unique<bgpsim::serve::WhatIfService>(
        std::move(*snapshot), W);
    bgpsim::serve::QueryServerOptions server_options;
    server_options.workers = W;
    server = std::make_unique<bgpsim::serve::QueryServer>(
        service->make_router(), server_options);
    if (!server->start() || server->port() == 0) {
      throw std::runtime_error("query server did not start");
    }
    setup_s.push_back(seconds_since(t0));
  }

  // One closed-loop leg: W clients, each on its own keep-alive connection.
  const auto client_leg = [&](double budget_s, bool warmup, bool traced,
                              std::uint64_t stream) {
    const std::uint16_t port = server->port();
    std::vector<ClientLog> logs(W);
    bgpsim::parallel_chunks(W, W, [&](unsigned, std::size_t begin, std::size_t end) {
      for (std::size_t c = begin; c < end; ++c) {
        ClientLog& log = logs[c];
        SpanLane* client_lane =
            traced ? &tracer.lane(1 + static_cast<std::uint32_t>(c)) : nullptr;
        HttpClient client(port);
        const std::uint64_t leg_seed = bgpsim::derive_seed(options.seed, stream);
        RequestStream requests(bgpsim::derive_seed(leg_seed, c), transit, warmup);
        bgpsim::Rng verify_rng(bgpsim::derive_seed(leg_seed, W + c));
        HttpReply reply;
        const std::int64_t start = now_ns();
        int replays_seen = 0;
        for (std::uint64_t i = 0;; ++i) {
          if (warmup ? replays_seen >= kWarmupReplaysPerClient ||
                           i >= kWarmupMaxRequests
                     : seconds_since(start) >= budget_s) {
            break;
          }
          const AttackSpec spec = requests.next();
          const std::string body = request_body(g, spec);
          const bool verify = verify_rng.bounded(kVerifyEvery) == 0;
          const std::int64_t t0 = now_ns();
          bool sent = false;
          {
            ScopedSpan span(client_lane, "net.request", 0, i);
            sent = client.post("/v1/attack", body, reply);
          }
          log.latency_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
          ++log.requests;
          bool detected = false;
          const std::optional<std::uint64_t> polluted =
              sent ? warm_pollution(reply.status, reply.body, &detected)
                   : std::nullopt;
          replays_seen += detected;  // warm-up requests never forge the origin
          if (!polluted) {
            ++log.failures;
          } else if (verify) {
            log.verify.push_back({spec, *polluted});
          }
        }
        log.connects = client.connects();
      }
    });
    return logs;
  };

  // Completed requests, wall time and latencies of the untraced (index 0)
  // and traced (index 1) loaded legs.
  struct LegTotals {
    std::uint64_t ok = 0;
    double wall_s = 0.0;
    std::vector<double> latency_us;
  };
  LegTotals totals[2];
  std::vector<ClientLog> all_logs;
  const auto loaded_leg = [&](double budget_s, bool traced, std::uint64_t stream) {
    const std::int64_t start = now_ns();
    std::vector<ClientLog> logs = client_leg(budget_s, false, traced, stream);
    LegTotals& t = totals[traced ? 1 : 0];
    t.wall_s += seconds_since(start);
    for (ClientLog& log : logs) {
      t.ok += log.requests - log.failures;
      t.latency_us.insert(t.latency_us.end(), log.latency_us.begin(),
                          log.latency_us.end());
      result.attempted += log.requests;
      result.failed += log.failures;
      all_logs.push_back(std::move(log));
    }
  };

  for (ClientLog& log : client_leg(0.0, /*warmup=*/true, false, 50)) {
    result.attempted += log.requests;
    result.failed += log.failures;
    all_logs.push_back(std::move(log));
  }

  // Serial leg: W threads side by side, each dispatching its own stream in
  // process through the router on its own worker's simulator (the server
  // is stopped), one request at a time: the handler's single-thread speed
  // without the network. Taken on all W CPUs at once because a lone
  // thread's speed on a shared VM drifts far more than W threads' average.
  const bgpsim::serve::Router router = service->make_router();
  std::vector<Dispatcher> dispatchers;
  for (unsigned t = 0; t < W; ++t) {
    dispatchers.emplace_back(
        bgpsim::derive_seed(bgpsim::derive_seed(options.seed, 300), t), transit);
  }
  const auto serial_leg = [&](double budget_s) {
    bgpsim::parallel_chunks(W, W, [&](unsigned, std::size_t begin, std::size_t end) {
      for (std::size_t t = begin; t < end; ++t) {
        dispatchers[t].run(budget_s, router, g, static_cast<unsigned>(t),
                           options.trace ? &tracer.lane(1 + t) : nullptr);
      }
    });
  };

  // Timed part: rounds of loaded legs and a serial leg. Alternating them
  // spreads every metric over the whole run, so slow drift in machine speed
  // averages out instead of landing on one metric. Traced and untraced
  // loaded legs alternate in both orders too, so drift does not read as
  // tracing overhead.
  const int rounds = options.trace ? 2 : 4;
  const double round_s = options.seconds / rounds;
  for (int round = 0; round < rounds; ++round) {
    if (round > 0 && !server->start()) {
      throw std::runtime_error("query server did not restart");
    }
    const std::uint64_t stream = 100 + 2 * static_cast<std::uint64_t>(round);
    if (!options.trace) {
      loaded_leg(round_s * 0.75, false, stream);
    } else {
      // Untraced first in even rounds, traced first in odd ones.
      loaded_leg(round_s * 0.25, round % 2 == 1, stream);
      loaded_leg(round_s * 0.25, round % 2 == 0, stream + 1);
    }
    server->stop();
    serial_leg(round_s * 0.25);
  }
  std::uint64_t dispatched = 0;
  double dispatch_total = 0.0;
  for (const Dispatcher& d : dispatchers) {
    dispatched += d.specs.size();
    dispatch_total += d.busy_s;
    result.attempted += d.specs.size();
    result.failed += d.failures;
  }

  // Cold in-process re-check of a seeded subset of the timed requests: the
  // served warm answer must equal HijackSimulator::attack_ex without
  // baselines.
  {
    bgpsim::HijackSimulator cold(g, scenario.sim_config());
    std::map<std::uint32_t, bgpsim::FilterSet> cores;
    for (const std::uint32_t k : kDeploymentTops) {
      cores.emplace(k, bgpsim::to_filter_set(g, bgpsim::top_k_deployment(g, k)));
    }
    std::size_t checked = 0;
    for (const ClientLog& log : all_logs) {
      for (const Verify& v : log.verify) {
        if (checked++ >= kMaxVerified) break;
        const bgpsim::FilterSet& filters = cores.at(v.spec.deployment_top);
        cold.set_validators(filters.count() > 0
                                ? std::optional<bgpsim::ValidatorSet>(filters.bitset())
                                : std::nullopt);
        bgpsim::AttackOptions attack_options;
        attack_options.forged_origin = v.spec.forged;
        const auto expect = cold.attack_ex(v.spec.victim, v.spec.attacker, attack_options);
        result.check(expect.polluted_ases == v.polluted);
      }
    }
    std::printf("  %zu served answers re-checked cold in process\n",
                std::min(checked, kMaxVerified));
  }

  const double qps = static_cast<double>(totals[0].ok) / totals[0].wall_s;
  const Summary latency = summarize(totals[options.trace ? 1 : 0].latency_us);
  std::printf("  W=%u workers and clients; %zu timed requests, p%.1f is the "
              "highest percentile with >= 10 samples beyond it; %llu "
              "dispatches on W single-threaded dispatchers\n",
              W, latency.n, highest_reportable_percentile(latency.n),
              static_cast<unsigned long long>(dispatched));
  if (!options.trace) {
    result.metrics["setup_s"] = median(setup_s);
    result.metrics["throughput_per_s"] = qps;
    result.metrics["serial_throughput_per_s"] =
        static_cast<double>(dispatched) / dispatch_total;
    result.metrics["latency_p50_ms"] = us_to_ms(latency.p50);
    result.metrics["latency_p90_ms"] = us_to_ms(latency.p90);
    return;
  }

  // Traced only: each dispatcher's requests again, as the handler's layer
  // calls one by one with a span per call, on W threads as the dispatch
  // pass ran. A second pass, so both passes see the same cache state.
  std::vector<std::unique_ptr<LayerReplayer>> layer_replayers;
  for (unsigned t = 0; t < W; ++t) {
    layer_replayers.push_back(
        std::make_unique<LayerReplayer>(scenario, baselines, &tracer.lane(1 + t)));
  }
  bgpsim::parallel_chunks(W, W, [&](unsigned, std::size_t begin, std::size_t end) {
    for (std::size_t t = begin; t < end; ++t) {
      for (std::size_t r = 0; r < dispatchers[t].specs.size(); ++r) {
        layer_replayers[t]->replay(dispatchers[t].specs[r], trace_id(t, r));
      }
    }
  });
  LayerReplayer::Counts counts;
  std::vector<double> overhead_us;
  for (const auto& replayer : layer_replayers) {
    counts += replayer->counts;
    overhead_us.insert(overhead_us.end(), replayer->overhead_us.begin(),
                       replayer->overhead_us.end());
  }

  // serve.unaccounted: dispatch time minus the time the same request's
  // layer calls cover in the replay.
  const std::vector<Span> spans = tracer.collect();
  const auto children = children_by_parent(spans);
  std::map<std::uint64_t, double> dispatch_us_by_request;
  for (const Span& span : spans) {
    if (std::string_view(span.name) == "serve.dispatch") {
      dispatch_us_by_request[span.trace] = static_cast<double>(span.duration_ns()) / 1e3;
    }
  }
  std::vector<double> unaccounted_us;
  for (const Span& span : spans) {
    if (std::string_view(span.name) != "serve.replay") continue;
    const auto kids = children.find(span.id);
    const std::int64_t covered =
        kids == children.end() ? 0 : covered_ns(span, kids->second);
    unaccounted_us.push_back(dispatch_us_by_request[span.trace] -
                             static_cast<double>(covered) / 1e3);
  }

  std::uint64_t requests = 0;
  std::uint64_t connects = 0;
  for (const ClientLog& log : all_logs) {
    requests += log.requests;
    connects += log.connects;
  }
  const Summary dispatch = summarize(tracer.durations_us("serve.dispatch"));
  const Summary repair = summarize(tracer.durations_us("bgp.warm_repair"));
  const double n = static_cast<double>(counts.requests);
  auto& m = result.metrics;
  m["store.snapshot_load_s"] = median(tracer.durations_us("store.load_snapshot")) / 1e6;
  m["store.baseline_mb"] = baseline_mb;
  m["bgp.warm_repair_us_p50"] = repair.p50;
  m["bgp.warm_repair_us_p90"] = repair.p90;
  m["bgp.warm_fallback_ratio"] = static_cast<double>(counts.fallbacks) / n;
  m["bgp.generation_replay_us_p50"] = median(tracer.durations_us("bgp.generation_replay"));
  m["hijack.attack_us_p50"] = median(tracer.durations_us("hijack.attack"));
  m["hijack.overhead_us"] = median(overhead_us);
  m["hijack.warm_hit_ratio"] = static_cast<double>(counts.warm_hits) / n;
  m["defense.top_k_us"] = median(tracer.durations_us("defense.top_k"));
  m["defense.top_k_calls_per_request"] = static_cast<double>(counts.top_k_calls) / n;
  m["detect.probe_top_k_us"] = median(tracer.durations_us("detect.probe_top_k"));
  m["detect.evaluate_us"] = median(tracer.durations_us("detect.evaluate"));
  m["detect.replay_ratio"] = counts.with_probes > 0
                                 ? static_cast<double>(counts.replays) /
                                       static_cast<double>(counts.with_probes)
                                 : 0.0;
  m["obs.json_parse_us"] = median(tracer.durations_us("obs.json_parse"));
  m["serve.dispatch_us_p50"] = dispatch.p50;
  m["serve.dispatch_us_p90"] = dispatch.p90;
  m["serve.unaccounted_us"] = median(unaccounted_us);
  m["serve.latency_p99_ms"] = us_to_ms(latency.p99);
  m["serve.latency_samples"] = static_cast<double>(latency.n);
  m["net.overhead_us"] = latency.p50 - dispatch.p50;
  m["net.connects_per_request"] =
      static_cast<double>(connects) / static_cast<double>(requests);
  m["trace.throughput_ratio"] =
      static_cast<double>(totals[1].ok) / totals[1].wall_s / qps;
  std::printf("  serve.dispatch n=%zu, bgp.warm_repair n=%zu, "
              "bgp.generation_replay n=%llu\n",
              dispatch.n, repair.n, static_cast<unsigned long long>(counts.replays));
  if (!tracer.write_json(span_dump_path(options))) {
    throw std::runtime_error("cannot write " + span_dump_path(options));
  }
}

}  // namespace perfbench
