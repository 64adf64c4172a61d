// audit_runner — differential engine-audit harness.
//
// Generates a synthetic Internet, then runs independently designed routing
// engines side by side over a batch of hijack scenarios: EquilibriumEngine
// (O(V+E) fixed-point) against the two message-passing schedulers of the
// paper's decision process, GenerationEngine (lock-step generations) and
// EventEngine (per-link delays). It checks:
//   * audit_route_table() is clean on every equilibrium table (loop-free,
//     valley-free, consistent via chains and lengths),
//   * each message-passing engine converges, and every path it stores is
//     loop-free and valley-free,
//   * each picks the equilibrium's (origin, class, path length) at every AS
//     (the paper's pollution metrics depend on the origin choice).
//
// This is the runtime counterpart of the paper's RouteViews validation (62 %
// exact/equivalent matches): engines written from different designs, one of
// them under asynchronous timing, agreeing on every scenario is strong
// evidence none mis-implements the Gao–Rexford policy model. Registered as
// CTest cases (also under the asan / ubsan presets); any disagreement prints
// the scenario coordinates so it can be replayed with
// --seed/--victim/--attacker.
//
// Exit status: 0 all scenarios pass, 1 any check failed, 2 usage or input
// error.
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/event_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "bgp/route_audit.hpp"
#include "flags.hpp"
#include "support/rng.hpp"
#include "topology/internet_gen.hpp"
#include "topology/metrics.hpp"

using namespace bgpsim;

namespace {

struct Options {
  std::uint32_t ases;
  std::uint64_t seed;
  std::uint32_t trials;
  std::optional<AsId> victim;    ///< replay this one scenario instead
  std::optional<AsId> attacker;  ///< of `trials` random ones
  bool tier1_shortest;
  bool explain;  ///< dump per-AS detail for every disagreement
};

const flags::Usage kUsage{
    "audit_runner [options]",
    "run the route engines over hijack scenarios and check that they agree",
    {flags::count<std::uint32_t>("ases", "topology size (default 1000)"),
     flags::count<std::uint64_t>("seed", "topology and scenario seed (default 1)"),
     flags::count<std::uint32_t>("trials", "random scenarios (default 8)"),
     flags::count<AsId>("victim", "replay one scenario: victim AS id"),
     flags::count<AsId>("attacker", "... and its attacker AS id"),
     flags::toggle("explain", "dump per-AS detail for every disagreement"),
     flags::toggle("no-tier1-shortest", "turn the tier-1 shortest-path rule off")}};

void explain_route(const AsGraph& graph, const char* label, const Route& route,
                   AsId v) {
  std::cout << "    " << label << ": origin=" << to_string(route.origin)
            << " cls=" << static_cast<int>(route.cls) << " len=" << route.path_len;
  if (route.via != kInvalidAs) {
    const auto rel = graph.relationship(v, route.via);
    std::cout << " via=" << route.via << " (" << (rel ? to_string(*rel) : "none")
              << " of AS " << v << ")";
  }
  std::cout << '\n';
}

template <typename Engine>
void explain_disagreements(const AsGraph& graph, const char* name,
                           const RouteTable& eq_table, const RouteTable& table,
                           const Engine& engine, const PolicyConfig& config) {
  std::uint32_t shown = 0;
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    const Route& want = eq_table.routes[v];
    const Route& got = table.routes[v];
    if (want.origin == got.origin && want.cls == got.cls &&
        want.path_len == got.path_len) {
      continue;
    }
    if (++shown > 16) {
      std::cout << "  ... (more disagreements elided)\n";
      break;
    }
    std::cout << "  AS " << v << " disagrees (tier1=" << config.as_is_tier1(v)
              << "):\n";
    explain_route(graph, "equilibrium", want, v);
    explain_route(graph, name, got, v);
    std::cout << "    " << name << " path:";
    for (const AsId hop : engine.path_of(v)) std::cout << ' ' << hop;
    std::cout << '\n';
  }
}

struct Failure {
  std::uint32_t count = 0;

  void report(const Options& opts, AsId victim, AsId attacker, std::string_view what) {
    ++count;
    std::cout << "FAIL: " << what << "  [replay: --ases " << opts.ases
              << " --seed " << opts.seed << " --victim " << victim
              << " --attacker " << attacker << "]\n";
  }
};

/// The checks every message-passing engine must pass once it has run the
/// scenario: convergence, policy-compliant stored paths, and the
/// equilibrium's (origin, class, path length) at every AS.
template <typename Engine>
void audit_engine(const Options& opts, const AsGraph& graph,
                  const PolicyConfig& config, const char* name,
                  const Engine& engine, bool converged,
                  const RouteTable& eq_table, AsId victim, AsId attacker,
                  Failure& failure) {
  if (!converged) {
    failure.report(opts, victim, attacker,
                   std::string(name) + " engine did not converge");
    return;
  }

  std::uint64_t bad_paths = 0;
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    const auto& path = engine.path_of(v);
    if (path.empty()) continue;
    if (!path_is_loop_free(path) || !path_is_valley_free(graph, path)) ++bad_paths;
  }
  if (bad_paths != 0) {
    failure.report(opts, victim, attacker,
                   std::string(name) + " engine produced " +
                       std::to_string(bad_paths) + " non-policy-compliant path(s)");
  }

  RouteTable table;
  engine.export_routes(table);
  const double agreement = route_agreement(eq_table, table);
  if (agreement != 1.0) {
    failure.report(opts, victim, attacker,
                   std::string(name) + " route agreement " +
                       std::to_string(agreement) + " != 1.0 with equilibrium");
    if (opts.explain) {
      explain_disagreements(graph, name, eq_table, table, engine, config);
    }
  }
}

void audit_scenario(const Options& opts, const AsGraph& graph,
                    const PolicyConfig& config, EquilibriumEngine& equilibrium,
                    GenerationEngine& generation, EventEngine& event,
                    AsId victim, AsId attacker, Failure& failure) {
  RouteTable eq_table;
  equilibrium.compute_hijack(victim, attacker, nullptr, eq_table);
  const AuditReport eq_report = audit_route_table(graph, eq_table);
  if (!eq_report.clean()) {
    failure.report(opts, victim, attacker,
                   "equilibrium table not clean: loops=" +
                       std::to_string(eq_report.loops) + " valleys=" +
                       std::to_string(eq_report.valley_violations) +
                       " broken=" + std::to_string(eq_report.broken_via_chains) +
                       " len=" + std::to_string(eq_report.length_mismatches));
  }

  generation.reset();
  const bool gen_converged = generation.announce(victim, Origin::Legit).converged &&
                             generation.announce(attacker, Origin::Attacker).converged;
  audit_engine(opts, graph, config, "generation", generation, gen_converged,
               eq_table, victim, attacker, failure);

  event.reset();
  const EventRunStats legit = event.announce(victim, Origin::Legit, 0.0);
  const bool event_converged =
      legit.converged &&
      event.announce(attacker, Origin::Attacker, legit.quiescent_time + 1.0)
          .converged;
  audit_engine(opts, graph, config, "event", event, event_converged, eq_table,
               victim, attacker, failure);
}

int run(const Options& opts) {
  InternetGenParams params;
  params.total_ases = opts.ases;
  params.seed = opts.seed;
  const AsGraph graph = generate_internet(params);

  PolicyConfig config;
  config.tier1_shortest_path = opts.tier1_shortest;
  const auto tiers = classify_tiers(graph, scale_degree_threshold(opts.ases, 120));
  config.is_tier1 =
      std::vector<std::uint8_t>(tiers.is_tier1.begin(), tiers.is_tier1.end());

  EquilibriumEngine equilibrium(graph, config);
  GenerationEngine generation(graph, config);
  EventEngineConfig event_config;
  event_config.policy = config;
  event_config.delay_seed = derive_seed(opts.seed, 0xe7e47ULL);
  EventEngine event(graph, event_config);

  Failure failure;
  std::uint32_t scenarios = 0;
  if (opts.victim) {
    audit_scenario(opts, graph, config, equilibrium, generation, event,
                   *opts.victim, *opts.attacker, failure);
    ++scenarios;
  } else {
    Rng rng(derive_seed(opts.seed, 0xa0d17ULL));
    for (std::uint32_t t = 0; t < opts.trials; ++t) {
      const AsId victim = static_cast<AsId>(rng.bounded(graph.num_ases()));
      AsId attacker = static_cast<AsId>(rng.bounded(graph.num_ases()));
      if (attacker == victim) attacker = (attacker + 1) % graph.num_ases();
      audit_scenario(opts, graph, config, equilibrium, generation, event,
                     victim, attacker, failure);
      ++scenarios;
    }
  }

  std::cout << "audit_runner: " << graph.num_ases() << " ASes, " << scenarios
            << " scenario(s), " << failure.count << " failure(s)\n";
  return failure.count == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  flags::Parsed args;
  if (const auto status = args.parse(kUsage, argc, argv, 1)) return *status;
  const Options opts{args.count<std::uint32_t>("ases", 1000),
                     args.count<std::uint64_t>("seed", 1),
                     args.count<std::uint32_t>("trials", 8),
                     args.count<AsId>("victim"),
                     args.count<AsId>("attacker"),
                     !args.has("no-tier1-shortest"), args.has("explain")};
  if (opts.victim.has_value() != opts.attacker.has_value()) {
    return flags::usage_error(kUsage, "--victim and --attacker go together");
  }
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "audit_runner: " << e.what() << '\n';
    return 2;
  }
}
