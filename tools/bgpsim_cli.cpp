// bgpsim — command-line front end to the library. `bgpsim --help` lists the
// commands; `bgpsim <command> --help` prints the flags one command takes.
#include <poll.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/attribution.hpp"
#include "campaign/driver.hpp"
#include "analysis/detector_experiment.hpp"
#include "analysis/vulnerability.hpp"
#include "bgp/introspect.hpp"
#include "core/scenario.hpp"
#include "defense/deployment.hpp"
#include "flags.hpp"
#include "obs/obs.hpp"
#include "obs/promtext.hpp"
#include "serve/query_server.hpp"
#include "serve/request_obs.hpp"
#include "serve/service.hpp"
#include "store/snapshot.hpp"
#include "support/env.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "topology/caida_writer.hpp"

using namespace bgpsim;
using flags::Parsed;

namespace {

Scenario load_scenario(const Parsed& args) {
  ScenarioParams params;
  if (const auto path = args.text("topo")) return Scenario::load_caida(*path, params);
  params.topology.total_ases = args.count<std::uint32_t>("ases", 4000);
  params.topology.seed = args.count<std::uint64_t>("seed", 42);
  return Scenario::generate(params);
}

/// The dense id of the AS a required ASN flag names.
AsId require_as(const AsGraph& g, const Parsed& args, const std::string& flag) {
  const auto asn = args.count<Asn>(flag);
  if (!asn) throw ConfigError("--" + flag + " <ASN> is required");
  return g.require(*asn);
}

/// ROV at the --core top-K ASes by degree, when given.
std::optional<FilterSet> core_filters(const AsGraph& g, const Parsed& args) {
  const auto core = args.count<std::size_t>("core");
  if (!core) return std::nullopt;
  return to_filter_set(g, top_k_deployment(g, *core));
}

/// Resolve an `all|transit|ASN,ASN,...` flag (default transit) to dense ids.
std::vector<AsId> as_list(const Scenario& scenario, const Parsed& args,
                          const std::string& flag) {
  const std::string spec = args.text(flag).value_or("transit");
  if (spec == "transit" || spec.empty()) return scenario.transit();
  std::vector<AsId> ids(spec == "all" ? scenario.graph().num_ases() : 0);
  std::iota(ids.begin(), ids.end(), AsId{0});
  if (spec == "all") return ids;
  for (const std::string_view field : split(spec, ',')) {
    const auto asn = parse_u64(trim(field));
    if (!asn || *asn > std::numeric_limits<Asn>::max()) {
      throw ConfigError("bad --" + flag + " entry: " + std::string(field));
    }
    ids.push_back(scenario.graph().require(static_cast<Asn>(*asn)));
  }
  return ids;
}

int cmd_generate(const Parsed& args) {
  const auto out = args.text("out");
  if (!out) throw ConfigError("generate requires --out <file>");
  InternetGenParams params;
  params.total_ases = args.count<std::uint32_t>("ases", 4000);
  params.seed = args.count<std::uint64_t>("seed", 42);
  const AsGraph graph = generate_internet(params);
  save_caida_file(*out, graph);
  std::printf("wrote %u ASes / %llu links to %s\n", graph.num_ases(),
              static_cast<unsigned long long>(graph.num_links()), out->c_str());
  return 0;
}

int cmd_info(const Parsed& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  std::printf("ases: %u  links: %llu  (E/N %.2f)\n", g.num_ases(),
              static_cast<unsigned long long>(g.num_links()),
              static_cast<double>(g.num_links()) / g.num_ases());
  std::printf("tier-1 clique (%zu):", scenario.tiers().tier1.size());
  for (const AsId t1 : scenario.tiers().tier1) std::printf(" %u", g.asn(t1));
  std::printf("\ntier-2: %zu   transit: %zu (%.1f%%)   regions: %u\n",
              scenario.tiers().tier2.size(), scenario.transit().size(),
              100.0 * scenario.transit().size() / g.num_ases(), g.num_regions());
  std::map<std::uint16_t, std::uint32_t> depth_hist;
  for (AsId v = 0; v < g.num_ases(); ++v) ++depth_hist[scenario.depth()[v]];
  std::printf("depth histogram:");
  for (const auto& [depth, count] : depth_hist) {
    if (depth == kUnreachableDepth) {
      std::printf("  unreachable:%u", count);
    } else {
      std::printf("  %u:%u", depth, count);
    }
  }
  std::printf("\n");
  return 0;
}

/// The attack commands' `pollution_trace` block: attribution of the most
/// recent (traced) attack, rendered as one JSON line on stdout.
void print_pollution_trace(const AsGraph& g, const HijackSimulator& sim,
                           AsId target, AsId attacker) {
  const AttributionReport report = compute_attribution(
      g, sim.routes(), target, attacker, sim.last_provenance());
  std::printf("pollution_trace: %s\n",
              attribution_trace_json(g, report).c_str());
}

int cmd_attack(const Parsed& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  const AsId victim = require_as(g, args, "victim");
  const AsId attacker = require_as(g, args, "attacker");
  BGPSIM_PROGRESS(1);
  BGPSIM_PROGRESS_PHASE("cli.attack");
  HijackSimulator sim = scenario.make_simulator();
  if (const auto core = core_filters(g, args)) sim.set_validators(core->bitset());
  // Constructed only when tracing (the edge buffer is megabytes).
  std::optional<obs::ProvenanceRecorder> recorder;
  if (args.has("trace-pollution")) {
    recorder.emplace();
    sim.set_provenance(&*recorder);
  }
  AttackOptions options;
  if (args.has("subprefix")) options.kind = AttackKind::SubPrefix;
  options.forged_origin = args.has("forged");

  if (args.has("explain")) {
    if (options.forged_origin || options.kind == AttackKind::SubPrefix) {
      throw ConfigError("--explain supports the plain exact-prefix attack");
    }
    const AsId watched = require_as(g, args, "explain");
    DecisionHistory history;
    const auto result = sim.attack_explained(victim, attacker, watched, history);
    std::printf("exact-prefix hijack of AS%u by AS%u "
                "(generation engine, %u generations):\n",
                g.asn(victim), g.asn(attacker), result.generations);
    std::printf("  polluted: %u of %u ASes (%.1f%%)\n\n", result.polluted_ases,
                g.num_ases(), 100.0 * result.polluted_ases / g.num_ases());
    std::fputs(render_decision_history(g, history).c_str(), stdout);
    if (recorder) print_pollution_trace(g, sim, victim, attacker);
    return 0;
  }

  const auto result = sim.attack_ex(victim, attacker, options);
  std::printf("%s%s hijack of AS%u by AS%u:\n",
              options.forged_origin ? "forged-origin " : "",
              options.kind == AttackKind::SubPrefix ? "sub-prefix" : "exact-prefix",
              g.asn(victim), g.asn(attacker));
  std::printf("  polluted: %u of %u ASes (%.1f%%), %.1f%% of address space\n",
              result.polluted_ases, g.num_ases(),
              100.0 * result.polluted_ases / g.num_ases(),
              100.0 * result.polluted_address_fraction);
  if (recorder) print_pollution_trace(g, sim, result.target, result.attacker);
  return 0;
}

int cmd_attribution(const Parsed& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  const AsId victim = require_as(g, args, "victim");
  const AsId attacker = require_as(g, args, "attacker");
  const auto top = args.count<std::size_t>("top", 10);
  const auto cuts = args.count<std::size_t>("cuts", 3);

  // The traced attack plus one exact counterfactual re-run per cut.
  BGPSIM_PROGRESS(1 + (cuts < top ? cuts : top));
  BGPSIM_PROGRESS_PHASE("cli.attribution");
  HijackSimulator sim = scenario.make_simulator();
  if (const auto core = core_filters(g, args)) sim.set_validators(core->bitset());
  obs::ProvenanceRecorder recorder;
  sim.set_provenance(&recorder);
  sim.attack(victim, attacker);

  AttributionReport report = compute_attribution(
      g, sim.routes(), victim, attacker, sim.last_provenance(), top);
  annotate_counterfactual_cuts(g, scenario.sim_config(), sim.validators(),
                               report, cuts);

  if (args.has("json")) {
    std::printf("%s\n", attribution_trace_json(g, report).c_str());
    return 0;
  }

  std::printf("attribution: AS%u hijacked by AS%u — %u polluted ASes, "
              "max depth %u\n",
              g.asn(victim), g.asn(attacker), report.polluted, report.max_depth);
  std::printf("  trace: %llu edges recorded, %llu dropped%s\n",
              static_cast<unsigned long long>(report.edges_recorded),
              static_cast<unsigned long long>(report.edges_dropped),
              report.trace_complete ? "" : "  (incomplete: raise "
                                           "BGPSIM_PROVENANCE_RING)");
  std::printf("  depth histogram:");
  for (std::uint32_t d = 1; d < report.depth_histogram.size(); ++d) {
    std::printf("  %u:%u", d, report.depth_histogram[d]);
  }
  std::printf("\n");
  if (report.blocked_offers != 0) {
    std::printf("  deployment frontier: %llu bogus offers blocked at %u "
                "validators (min depth %u, mean %.1f)\n",
                static_cast<unsigned long long>(report.blocked_offers),
                report.blocked_sites, report.frontier_min_depth,
                report.frontier_mean_depth);
  }
  std::printf("  choke points (subtree = polluted ASes routed through):\n");
  for (const ChokePoint& cp : report.choke_points) {
    if (cp.counterfactual_cut >= 0) {
      std::printf("    AS%-10u subtree %-8u exact cut if validating: %lld\n",
                  g.asn(cp.as), cp.subtree,
                  static_cast<long long>(cp.counterfactual_cut));
    } else {
      std::printf("    AS%-10u subtree %-8u\n", g.asn(cp.as), cp.subtree);
    }
  }
  return 0;
}

int cmd_sweep(const Parsed& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  const AsId victim = require_as(g, args, "victim");

  VulnerabilityAnalyzer analyzer(g, scenario.sim_config());
  const std::optional<FilterSet> filters = core_filters(g, args);
  BGPSIM_PROGRESS(scenario.transit().size());
  const auto curve = analyzer.sweep(victim, scenario.transit(),
                                    filters ? &*filters : nullptr);
  std::printf("AS%u (depth %u): %zu transit attackers\n", g.asn(victim),
              scenario.depth()[victim], curve.attackers.size());
  std::printf("  mean pollution %.1f  median %.0f  max %.0f\n",
              curve.stats.mean(),
              quantile(std::vector<double>(curve.pollution.begin(),
                                           curve.pollution.end()),
                       0.5),
              curve.stats.max());
  std::printf("  attackers polluting >=10%% of the net: %u\n",
              curve.attackers_at_least(g.num_ases() / 10));
  return 0;
}

int cmd_detect(const Parsed& args) {
  const Scenario scenario = load_scenario(args);
  const AsGraph& g = scenario.graph();
  const auto attacks = args.count<std::uint32_t>("attacks", 1000);
  const auto k = args.count<std::size_t>("probes", scenario.scaled_count(62));

  DetectorExperiment experiment(g, scenario.sim_config());
  Rng rng(args.count<std::uint64_t>("seed", 42));
  BGPSIM_PROGRESS(attacks);
  const auto samples = experiment.sample_transit_attacks(attacks, rng);
  const std::vector<ProbeSet> probe_sets{ProbeSet::top_k(g, k)};
  const auto results = experiment.run(samples, probe_sets);
  const auto& r = results[0];
  std::printf("%s vs %u random transit attacks:\n", r.label.c_str(), attacks);
  std::printf("  missed completely: %u (%.1f%%)\n", r.missed,
              100.0 * r.missed_fraction);
  if (r.missed > 0) {
    std::printf("  largest undetected attack: %u polluted ASes\n",
                static_cast<std::uint32_t>(r.missed_pollution.max()));
  }
  return 0;
}

int cmd_promcheck(const Parsed& args) {
  const auto file = args.text("file");
  if (!file) throw ConfigError("promcheck requires --file <metrics.prom>");
  std::ifstream in(*file, std::ios::binary);
  if (!in) throw ConfigError("cannot read " + *file);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::RegistrySnapshot snap = obs::parse_prom_text(buffer.str());
  std::uint64_t samples = 0;
  for (const auto& entry : snap.histograms) samples += entry.second.count;
  std::printf("%s: ok — %zu counters, %zu gauges, %zu histograms "
              "(%llu observations)\n",
              file->c_str(), snap.counters.size(), snap.gauges.size(),
              snap.histograms.size(), static_cast<unsigned long long>(samples));
  return 0;
}

int cmd_snapshot_save(const Parsed& args) {
  const auto out = args.text("out");
  if (!out) throw ConfigError("snapshot save requires --out <file>");
  const Scenario scenario = load_scenario(args);

  const std::vector<AsId> targets = as_list(scenario, args, "targets");
  BGPSIM_PROGRESS(targets.size());
  BGPSIM_PROGRESS_PHASE("snapshot.baselines");

  store::Snapshot snapshot;
  snapshot.graph = scenario.graph();
  snapshot.params = scenario.snapshot_params();
  snapshot.baselines = store::BaselineStore::compute(
      scenario.graph(), scenario.policy(), targets);
  store::save_snapshot(*out, snapshot);

  const store::SnapshotInfo info = store::describe_snapshot(snapshot);
  std::printf("wrote %s: %u ASes, %llu links, %u baseline targets "
              "(checksum %llu)\n",
              out->c_str(), info.ases,
              static_cast<unsigned long long>(info.links),
              info.baseline_targets,
              static_cast<unsigned long long>(info.topology_checksum));
  return 0;
}

int cmd_snapshot_info(const Parsed& args) {
  const auto file = args.text("file");
  if (!file) throw ConfigError("snapshot info requires --file <file>");
  const store::Snapshot snapshot = store::load_snapshot(*file);
  const store::SnapshotInfo info = store::describe_snapshot(snapshot);
  if (args.has("json")) {
    std::printf("%s\n", store::snapshot_info_json(info).c_str());
    return 0;
  }
  std::printf("snapshot: %s\n", file->c_str());
  std::printf("  format version: %u\n", info.format_version);
  std::printf("  topology checksum: %llu\n",
              static_cast<unsigned long long>(info.topology_checksum));
  std::printf("  ases: %u  links: %llu  regions: %u\n", info.ases,
              static_cast<unsigned long long>(info.links), info.regions);
  std::printf("  baseline targets: %u\n", info.baseline_targets);
  std::printf("  params: seed=%llu scale=%u tier1_shortest_path=%d "
              "stub_first_hop_filter=%d\n",
              static_cast<unsigned long long>(info.params.seed),
              info.params.scale, info.params.tier1_shortest_path ? 1 : 0,
              info.params.stub_first_hop_filter ? 1 : 0);
  return 0;
}

int cmd_snapshot_load(const Parsed& args) {
  const auto file = args.text("file");
  if (!file) throw ConfigError("snapshot load requires --file <file>");
  const store::Snapshot snapshot = store::load_snapshot(*file);
  const Scenario scenario = Scenario::from_snapshot(snapshot);

  // End-to-end integrity check beyond the checksums: recompute the first
  // stored baseline cold and compare route-for-route.
  const std::vector<AsId> targets = snapshot.baselines.targets();
  if (!targets.empty()) {
    const AsId probe = targets.front();
    const store::BaselineStore recomputed = store::BaselineStore::compute(
        scenario.graph(), scenario.policy(), std::vector<AsId>{probe});
    const RouteTable* stored = snapshot.baselines.find(probe);
    const RouteTable* fresh = recomputed.find(probe);
    for (AsId v = 0; v < scenario.graph().num_ases(); ++v) {
      const Route& a = stored->routes[v];
      const Route& b = fresh->routes[v];
      if (a.origin != b.origin || a.cls != b.cls || a.path_len != b.path_len ||
          a.via != b.via) {
        throw ConfigError("stored baseline for target " + std::to_string(probe) +
                          " diverges from a fresh convergence at AS " +
                          std::to_string(v));
      }
    }
  }
  std::printf("%s: ok — %u ASes, %zu baselines, first baseline verified "
              "against a cold convergence\n",
              file->c_str(), scenario.graph().num_ases(),
              snapshot.baselines.size());
  return 0;
}

int cmd_campaign(const Parsed& args) {
  campaign::CampaignSpec spec;
  spec.seed = args.count<std::uint64_t>("sample-seed", 1);
  spec.sample_budget = args.count<std::uint64_t>("samples", 100000);
  spec.target_ci = args.fraction("target-ci", 0.0);
  spec.batch = args.count<std::uint64_t>("batch", 0);
  spec.workers = std::max(1u, args.count<unsigned>("workers", 1));
  spec.deployment_top = args.count<std::uint32_t>("deployment-top", 0);
  spec.probes = args.count<std::uint32_t>("probes", 0);
  if (spec.sample_budget == 0) throw ConfigError("--samples must be positive");

  // Scenario + victim-pool baselines: reuse a snapshot's stored baselines
  // verbatim, or converge them here for the generated/loaded topology.
  std::optional<Scenario> scenario;
  std::shared_ptr<const store::BaselineStore> baselines;
  if (const auto snapshot_path = args.text("snapshot")) {
    store::Snapshot snapshot = store::load_snapshot(*snapshot_path);
    scenario.emplace(Scenario::from_snapshot(snapshot));
    baselines = std::make_shared<const store::BaselineStore>(
        std::move(snapshot.baselines));
  } else {
    scenario.emplace(load_scenario(args));
    const std::vector<AsId> victims = as_list(*scenario, args, "victims");
    BGPSIM_PROGRESS(victims.size());
    BGPSIM_PROGRESS_PHASE("campaign.baselines");
    baselines = std::make_shared<const store::BaselineStore>(
        store::BaselineStore::compute(scenario->graph(), scenario->policy(),
                                      victims));
  }
  if (baselines->size() == 0) {
    throw ConfigError("victim pool is empty — nothing to sample");
  }

  BGPSIM_PROGRESS(spec.sample_budget);
  BGPSIM_PROGRESS_PHASE("campaign.samples");
  const campaign::CampaignResult result =
      campaign::run_campaign(*scenario, baselines, spec);
  std::printf("%s\n", campaign::campaign_report_json(result).c_str());
  return 0;
}

volatile std::sig_atomic_t g_serve_stop = 0;

void serve_signal_handler(int) { g_serve_stop = 1; }

int cmd_serve(const Parsed& args) {
  const auto snapshot_path = args.text("snapshot");
  if (!snapshot_path) throw ConfigError("serve requires --snapshot <file>");
  const auto workers = args.count<unsigned>("workers", 4);

  serve::WhatIfService service(store::load_snapshot(*snapshot_path), workers);

  serve::QueryServerOptions options;
  options.port = args.count<std::uint16_t>("port", 0);
  options.workers = workers;
  options.limits.max_body_bytes =
      args.count<std::size_t>("max-body", options.limits.max_body_bytes);
  if (const auto access_log = args.text("access-log");
      access_log && !access_log->empty()) {
    serve::AccessLog::instance().set_output(*access_log);
  }
  serve::QueryServer server(service.make_router(), options);
  if (!server.start()) {
    std::fprintf(stderr, "error: cannot bind 127.0.0.1:%u\n", options.port);
    return 1;
  }

  std::signal(SIGTERM, serve_signal_handler);  // bgpsim-lint: allow(signal-safety)
  std::signal(SIGINT, serve_signal_handler);   // bgpsim-lint: allow(signal-safety)
  std::printf("serving %s on 127.0.0.1:%u (%u workers, %u ASes, %zu baselines)\n",
              snapshot_path->c_str(), server.port(), workers,
              service.scenario().graph().num_ases(),
              static_cast<std::size_t>(service.info().baseline_targets));
  std::fflush(stdout);

  while (g_serve_stop == 0) {
    poll(nullptr, 0, 200);  // sleep; interrupted early by signals
  }
  std::printf("signal received, draining...\n");
  server.stop();
  std::printf("drained, exiting\n");
  return 0;
}

/// Dump the metrics-registry snapshot after a command ran under --obs:
/// full JSON to a file, or a human-readable summary to stdout where time.*
/// histograms show latency quantiles instead of raw bucket counts.
void emit_obs_snapshot(const std::string& destination) {
  const obs::RegistrySnapshot snap = obs::registry().snapshot();
  if (!destination.empty()) {
    std::ofstream out(destination);
    out << snap.to_json() << '\n';
    if (!out) {
      std::fprintf(stderr, "error: cannot write metrics snapshot to %s\n",
                   destination.c_str());
    } else {
      std::printf("metrics snapshot: %s\n", destination.c_str());
    }
    return;
  }

  std::printf("-- metrics snapshot --\n");
  for (const auto& [name, value] : snap.counters) {
    std::printf("  counter  %-40s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  for (const auto& [name, value] : snap.gauges) {
    std::printf("  gauge    %-40s %g\n", name.c_str(), value);
  }
  for (const auto& [name, hist] : snap.histograms) {
    if (name.rfind("time.", 0) == 0) {
      std::printf("  time     %-40s n=%llu  p50=%.3gms p90=%.3gms p99=%.3gms\n",
                  name.c_str(), static_cast<unsigned long long>(hist.count),
                  hist.approx_quantile(0.50) * 1e3,
                  hist.approx_quantile(0.90) * 1e3,
                  hist.approx_quantile(0.99) * 1e3);
    } else {
      std::printf("  hist     %-40s n=%llu  mean=%.6g min=%g max=%g\n",
                  name.c_str(), static_cast<unsigned long long>(hist.count),
                  hist.count > 0 ? hist.sum / static_cast<double>(hist.count)
                                 : 0.0,
                  hist.min, hist.max);
    }
  }
}

using flags::count;
using flags::text;
using flags::toggle;

/// A command's rows: its own, then --topo/--ases/--seed when it builds a
/// topology, then the observability rows every command takes.
std::vector<flags::Flag> rows(std::initializer_list<flags::Flag> own,
                              bool topology = false) {
  std::vector<flags::Flag> out(own);
  if (topology) {
    out.insert(out.end(),
               {text("topo", "load this CAIDA serial-1 topology file"),
                count<std::uint32_t>("ases", "else synthesize N ASes (default 4000)"),
                count<std::uint64_t>("seed", "synthetic topology seed (default 42)")});
  }
  out.insert(out.end(),
             {{"obs", flags::Kind::OptionalText,
               "print the metrics snapshot after the command, or save it as JSON"},
              text("trace", "write a Perfetto trace there (as BGPSIM_TRACE)"),
              text("eventlog", "write the NDJSON event log there (as BGPSIM_EVENTLOG)"),
              toggle("progress", "heartbeat on stderr (as BGPSIM_PROGRESS_STDERR=1)"),
              text("profile", "write a folded CPU profile there (as BGPSIM_PROFILE)")});
  return out;
}

struct Command {
  std::string_view name;
  int (*run)(const Parsed&);
  std::string_view about;
  std::vector<flags::Flag> table;
};

const std::vector<Command>& commands() {
  const auto victim = count<Asn>("victim", "ASN of the prefix owner (required)");
  const auto attacker = count<Asn>("attacker", "ASN of the hijacker (required)");
  const auto core = count<std::size_t>("core", "ROV at the top-K ASes by degree");
  const auto out = text("out", "file to write (required)");
  const auto file = text("file", "file to read (required)");
  const auto json = toggle("json", "print JSON");
  static const std::vector<Command> kCommands = {
      {"generate", cmd_generate, "synthesize an Internet; write it as CAIDA serial-1",
       rows({out, count<std::uint32_t>("ases", "number of ASes (default 4000)"),
             count<std::uint64_t>("seed", "topology seed (default 42)")})},
      {"info", cmd_info, "topology statistics: tiers, transit share, depth histogram",
       rows({}, true)},
      {"attack", cmd_attack, "simulate one hijack and print its pollution",
       rows({victim, attacker, core, toggle("subprefix", "sub-prefix hijack"),
             toggle("forged", "forged-origin hijack"),
             count<Asn>("explain", "print this AS's route decisions, generation "
                                   "by generation"),
             toggle("trace-pollution", "append a pollution_trace JSON block")},
            true)},
      {"attribution", cmd_attribution, "traced hijack and its ranked choke points",
       rows({victim, attacker, core,
             count<std::size_t>("top", "choke points to list (default 10)"),
             count<std::size_t>("cuts", "exact cuts for the top N (default 3)"), json},
            true)},
      {"sweep", cmd_sweep, "attack the victim from every transit AS",
       rows({victim, core}, true)},
      {"detect", cmd_detect, "random transit attacks vs a top-K probe set",
       rows({count<std::uint32_t>("attacks", "attacks to sample (default 1000)"),
             count<std::size_t>("probes", "probes (default 62 at full scale)")},
            true)},
      {"promcheck", cmd_promcheck, "validate a Prometheus text exposition file",
       rows({file})},
      {"snapshot save", cmd_snapshot_save, "converge baselines; write a snapshot",
       rows({out, text("targets", "all|transit|ASN,ASN,... (default transit)")},
            true)},
      {"snapshot info", cmd_snapshot_info, "summary of a snapshot", rows({file, json})},
      {"snapshot load", cmd_snapshot_load,
       "load a snapshot; check one baseline against a cold convergence", rows({file})},
      {"campaign", cmd_campaign, "Monte-Carlo hijack-impact campaign (JSON report)",
       rows({text("snapshot", "sample this snapshot's baseline targets"),
             text("victims", "else all|transit|ASN,ASN,... (default transit)"),
             count<std::uint64_t>("samples", "sample budget (default 100000)"),
             flags::fraction("target-ci", "stop at this CI half-width", 1),
             count<std::uint64_t>("batch", "samples per round (default: auto)"),
             count<unsigned>("workers", "worker threads (default 1)"),
             count<std::uint32_t>("deployment-top", "ROV at the top-K ASes"),
             count<std::uint32_t>("probes", "top-K probe set for detection"),
             count<std::uint64_t>("sample-seed", "sampling seed (default 1)")},
            true)},
      {"serve", cmd_serve, "loopback what-if service; drains on SIGTERM/SIGINT",
       rows({text("snapshot", "snapshot to serve (required)"),
             count<std::uint16_t>("port", "port on 127.0.0.1 (default 0: any)"),
             count<unsigned>("workers", "worker threads (default 4)"),
             count<std::size_t>("max-body", "largest request body in bytes"),
             text("access-log", "NDJSON access log (as BGPSIM_ACCESS_LOG)")})},
  };
  return kCommands;
}

int list_commands(std::FILE* to) {
  std::fprintf(to, "usage: bgpsim <command> [options]\ncommands:\n");
  for (const Command& c : commands()) {
    std::fprintf(to, "  %-14s %s\n", std::string(c.name).c_str(),
                 std::string(c.about).c_str());
  }
  std::fprintf(to, "run `bgpsim <command> --help` for the flags of one command\n");
  return to == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name = argc > 1 ? argv[1] : "";
  if (name == "--help" || name == "-h") return list_commands(stdout);
  if (name == "snapshot" && argc > 2) name += std::string(" ") + argv[2];
  const auto command =
      std::find_if(commands().begin(), commands().end(),
                   [&](const Command& c) { return c.name == name; });
  if (command == commands().end()) {
    if (!name.empty()) std::fprintf(stderr, "error: no command '%s'\n", name.c_str());
    return list_commands(stderr);
  }
  const flags::Usage usage{"bgpsim " + name + " [options]", command->about,
                           command->table};
  Parsed args;
  const int first = name.find(' ') == std::string::npos ? 2 : 3;
  if (const auto status = args.parse(usage, argc, argv, first)) return *status;
  try {
    if (const auto trace = args.text("trace"); trace && !trace->empty()) {
      obs::TraceSink::instance().set_output(*trace);
    }
    if (const auto eventlog = args.text("eventlog"); eventlog && !eventlog->empty()) {
      obs::EventLogSink::instance().set_output(*eventlog);
    }
    if (args.has("progress")) obs::heartbeat_force_stderr(true);
    if (const auto profile = args.text("profile"); profile && !profile->empty()) {
      obs::profiler_start(*profile,
                          static_cast<unsigned>(env_u64("BGPSIM_PROFILE_HZ",
                                                        obs::kDefaultProfileHz)));
    } else {
      obs::profiler_start_from_env();  // --profile wins over BGPSIM_PROFILE
    }
    obs::heartbeat_start();  // no-op unless a telemetry sink is configured
    const int status = command->run(args);
    obs::heartbeat_stop();
    obs::profiler_stop();  // writes the folded profile named by --profile
    if (args.has("obs")) emit_obs_snapshot(*args.text("obs"));
    obs::flush_trace();
    return status;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
