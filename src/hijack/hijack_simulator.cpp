#include "hijack/hijack_simulator.hpp"

#include "bgp/warm_repair.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {

namespace {

/// Event-log record for the moment the bogus announcement enters the system.
/// Free function (not a macro arg) so every attack entry point shares it.
void log_attack_injected(const AsGraph& graph, AsId target, AsId attacker,
                         const char* kind, bool forged_origin, const char* engine,
                         bool validators) {
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("attack_injected");
               ev.u64("target_asn", graph.asn(target));
               ev.u64("attacker_asn", graph.asn(attacker));
               ev.str("kind", kind);
               ev.boolean("forged_origin", forged_origin);
               ev.str("engine", engine);
               ev.boolean("validators", validators);
               ev.emit());
  (void)graph;
  (void)target;
  (void)attacker;
  (void)kind;
  (void)forged_origin;
  (void)engine;
  (void)validators;
}

}  // namespace

HijackSimulator::HijackSimulator(const AsGraph& graph, SimConfig config)
    : graph_(graph), config_(std::move(config)),
      equilibrium_(graph_, config_.policy) {
  if (obs::provenance_armed_from_env()) {
    env_prov_ = std::make_unique<obs::ProvenanceRecorder>();
  }
}

obs::ProvenanceRecorder* HijackSimulator::arm_trace() {
  obs::ProvenanceRecorder* prov =
      external_prov_ != nullptr ? external_prov_ : env_prov_.get();
  if (prov != nullptr) prov->begin_attack();
  last_prov_ = prov;
  equilibrium_.set_provenance(prov);
  // generation_engine() re-applies last_prov_ on every access, so a lazily
  // constructed engine cannot miss the arming.
  return prov;
}

void HijackSimulator::set_validators(std::optional<ValidatorSet> validators) {
  BGPSIM_REQUIRE(!validators || validators->size() == graph_.num_ases(),
                 "validator set size mismatch");
  validators_ = std::move(validators);
}

void HijackSimulator::attach_baseline(
    std::shared_ptr<const store::BaselineStore> baselines) {
  baselines_ = std::move(baselines);
}

bool HijackSimulator::try_warm_attack(AsId target, AsId attacker,
                                      std::uint16_t attacker_seed_len,
                                      const ValidatorSet* validators) {
  if (!baselines_) return false;
  const RouteTable* baseline = baselines_->find(target);
  if (baseline == nullptr) return false;
  BGPSIM_REQUIRE(baseline->routes.size() == graph_.num_ases(),
                 "attached baseline does not match the topology");
  table_ = *baseline;
  if (!warm_hijack_repair(graph_, config_.policy, target, attacker,
                          attacker_seed_len, validators, table_, last_prov_)) {
    return false;  // budget tripped; caller reconverges cold
  }
  BGPSIM_COUNTER_ADD("warm.attacks", 1);
  return true;
}

GenerationEngine& HijackSimulator::generation_engine() {
  if (!generation_) generation_.emplace(graph_, config_.policy);
  generation_->set_provenance(last_prov_);
  return *generation_;
}

AttackResult HijackSimulator::attack(AsId target, AsId attacker) {
  return attack_ex(target, attacker, {});
}

ExtendedAttackResult HijackSimulator::attack_ex(AsId target, AsId attacker,
                                                const AttackOptions& options,
                                                const RpkiContext* rpki) {
  BGPSIM_REQUIRE(target < graph_.num_ases(), "target out of range");
  BGPSIM_REQUIRE(attacker < graph_.num_ases(), "attacker out of range");
  BGPSIM_REQUIRE(target != attacker, "attacker must differ from target");

  last_attack_warm_ = false;
  obs::ProvenanceRecorder* prov = arm_trace();
  ExtendedAttackResult result;
  result.target = target;
  result.attacker = attacker;

  // What goes on the wire.
  if (rpki != nullptr && rpki->allocation != nullptr) {
    const Prefix& owned = rpki->allocation->primary(target);
    result.announced = (options.kind == AttackKind::SubPrefix && owned.length() < 32)
                           ? owned.split().first
                           : owned;
  } else {
    // No allocation: a representative prefix (exact) or more-specific.
    const Prefix base = Prefix::make(0x0a000000, 16);  // 10.0.0.0/16 stand-in
    result.announced =
        options.kind == AttackKind::SubPrefix ? base.split().first : base;
  }
  result.claimed_origin =
      options.forged_origin ? graph_.asn(target) : graph_.asn(attacker);

  // Does the deployed origin validation fire? With an RPKI context it only
  // fires on Invalid announcements; without one it is all-knowing.
  if (rpki != nullptr && rpki->roas != nullptr) {
    result.validity = rpki->roas->validate(result.announced, result.claimed_origin);
    result.validators_engaged =
        validators_.has_value() && result.validity == RpkiValidity::Invalid;
  } else {
    result.validity = RpkiValidity::Invalid;
    result.validators_engaged = validators_.has_value();
  }
  const ValidatorSet* validators =
      result.validators_engaged ? &*validators_ : nullptr;

  const AsId forged_tail = options.forged_origin ? target : kInvalidAs;
  const auto attacker_seed_len =
      static_cast<std::uint16_t>(options.forged_origin ? 2 : 1);

  log_attack_injected(graph_, target, attacker,
                      options.kind == AttackKind::SubPrefix ? "subprefix"
                                                            : "exact",
                      options.forged_origin,
                      config_.engine == EngineKind::Equilibrium ? "equilibrium"
                                                                : "generation",
                      result.validators_engaged);

  if (options.kind == AttackKind::SubPrefix) {
    // The bogus more-specific never competes with the covering legitimate
    // route: a single-origin propagation decides who installs it.
    if (config_.engine == EngineKind::Equilibrium) {
      equilibrium_.compute_single(attacker, Origin::Attacker, attacker_seed_len,
                                  validators, table_);
    } else {
      GenerationEngine& engine = generation_engine();
      engine.reset();
      const auto stats = engine.announce(attacker, Origin::Attacker, validators,
                                         nullptr, forged_tail);
      engine.export_routes(table_);
      result.generations = stats.generations;
    }
  } else {
    if (config_.engine == EngineKind::Equilibrium) {
      if (try_warm_attack(target, attacker, attacker_seed_len, validators)) {
        last_attack_warm_ = true;
      } else {
        // Drop any edges a budget-tripped warm repair recorded: the cold
        // engine re-derives the full infection history from scratch.
        if (prov != nullptr) prov->begin_attack();
        equilibrium_.compute_hijack(target, attacker, validators, table_,
                                    attacker_seed_len);
      }
    } else {
      GenerationEngine& engine = generation_engine();
      engine.reset();
      const auto legit = engine.announce(target, Origin::Legit, validators);
      const auto bogus = engine.announce(attacker, Origin::Attacker, validators,
                                         nullptr, forged_tail);
      engine.export_routes(table_);
      result.generations = legit.generations + bogus.generations;
    }
  }

  static_cast<AttackResult&>(result) =
      summarize(target, attacker, result.generations);
  return result;
}

AttackResult HijackSimulator::attack_with_trace(AsId target, AsId attacker,
                                                PropagationTrace& trace) {
  BGPSIM_REQUIRE(target < graph_.num_ases(), "target out of range");
  BGPSIM_REQUIRE(attacker < graph_.num_ases(), "attacker out of range");
  BGPSIM_REQUIRE(target != attacker, "attacker must differ from target");

  last_attack_warm_ = false;
  arm_trace();
  const ValidatorSet* validators = validators_ ? &*validators_ : nullptr;
  log_attack_injected(graph_, target, attacker, "exact", false, "generation",
                      validators != nullptr);
  GenerationEngine& engine = generation_engine();
  engine.reset();
  engine.announce(target, Origin::Legit, validators);
  const auto bogus = engine.announce(attacker, Origin::Attacker, validators, &trace);
  engine.export_routes(table_);
  return summarize(target, attacker, bogus.generations);
}

AttackResult HijackSimulator::attack_explained(AsId target, AsId attacker,
                                               AsId watched,
                                               DecisionHistory& history) {
  BGPSIM_REQUIRE(target < graph_.num_ases(), "target out of range");
  BGPSIM_REQUIRE(attacker < graph_.num_ases(), "attacker out of range");
  BGPSIM_REQUIRE(target != attacker, "attacker must differ from target");
  BGPSIM_REQUIRE(watched < graph_.num_ases(), "watched AS out of range");

  history.watched = watched;
  history.snapshots.clear();

  last_attack_warm_ = false;
  arm_trace();
  const ValidatorSet* validators = validators_ ? &*validators_ : nullptr;
  log_attack_injected(graph_, target, attacker, "exact", false, "generation",
                      validators != nullptr);
  GenerationEngine& engine = generation_engine();
  engine.reset();
  engine.set_decision_watch(watched, &history);
  const auto legit = engine.announce(target, Origin::Legit, validators);
  const auto bogus = engine.announce(attacker, Origin::Attacker, validators);
  engine.set_decision_watch(kInvalidAs, nullptr);
  engine.export_routes(table_);
  return summarize(target, attacker, legit.generations + bogus.generations);
}

AttackResult HijackSimulator::summarize(AsId target, AsId attacker,
                                        std::uint32_t generations) const {
  BGPSIM_TRACE_SPAN(attack_span, "hijack.attack");
  AttackResult result;
  result.target = target;
  result.attacker = attacker;
  result.generations = generations;
  for (AsId v = 0; v < graph_.num_ases(); ++v) {
    const Route& route = table_.routes[v];
    if (!route.valid()) continue;
    ++result.routed_ases;
    if (route.origin == Origin::Attacker && v != attacker) {
      ++result.polluted_ases;
      result.polluted_address_space += graph_.address_space(v);
    }
  }
  const auto total = graph_.total_address_space();
  result.polluted_address_fraction =
      total == 0 ? 0.0
                 : static_cast<double>(result.polluted_address_space) /
                       static_cast<double>(total);

  BGPSIM_COUNTER_ADD("hijack.attacks", 1);
  // Campaign progress: every attack entry point (attack, attack_ex,
  // attack_with_trace, attack_explained) funnels through here, so this is
  // the one place a finished attack is counted.
  BGPSIM_PROGRESS_TICK();
  BGPSIM_GAUGE_SET("mem.rib_routes", table_.routes.size());
  BGPSIM_GAUGE_SET("mem.rib_bytes_est", table_.memory_bytes());
  BGPSIM_HISTOGRAM_OBSERVE(
      "hijack.polluted_ases",
      ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 24),
      result.polluted_ases);

  const bool traced = last_prov_ != nullptr;
  const std::uint64_t prov_dropped = traced ? last_prov_->dropped() : 0;
#if !defined(BGPSIM_OBS_DISABLED)
  if (traced) {
    BGPSIM_COUNTER_ADD("provenance.traced_attacks", 1);
    BGPSIM_COUNTER_ADD("provenance.edges_recorded", last_prov_->committed());
    if (prov_dropped != 0) {
      BGPSIM_COUNTER_ADD("provenance.edges_dropped", prov_dropped);
    }
    // Pollution reach per traced attack: hops from the bogus origin to each
    // polluted AS. path_len is absolute, so subtract the attacker's seed
    // length (1, or 2 for forged-origin) — depth 1 = attacker's neighbor.
    const std::uint16_t seed_len = table_.routes[attacker].path_len;
    for (AsId v = 0; v < graph_.num_ases(); ++v) {
      const Route& route = table_.routes[v];
      if (route.origin != Origin::Attacker || v == attacker) continue;
      BGPSIM_HISTOGRAM_OBSERVE(
          "engine.infection_depth",
          ::bgpsim::obs::HistogramSpec::linear(0.0, 64.0, 64),
          route.path_len - seed_len);
    }
    // Narrate the kept edges — to the dedicated BGPSIM_PROVENANCE=<path>
    // sink when one is configured, otherwise into the main event log.
    ::bgpsim::obs::EventLogSink* psink = ::bgpsim::obs::provenance_sink();
    if (psink != nullptr || ::bgpsim::obs::eventlog_enabled()) {
      const ::bgpsim::obs::InfectionEdge* edges = last_prov_->edges();
      const std::uint64_t kept = last_prov_->committed();
      for (std::uint64_t i = 0; i < kept; ++i) {
        const ::bgpsim::obs::InfectionEdge& e = edges[i];
        ::bgpsim::obs::EventRecord ev("infection_edge", psink);
        ev.u64("target_asn", graph_.asn(target));
        ev.u64("attacker_asn", graph_.asn(attacker));
        ev.str("kind", to_string(::bgpsim::obs::edge_kind(e)));
        ev.u64("to_asn", graph_.asn(e.to));
        ev.u64("from_asn", graph_.asn(e.from));
        ev.u64("generation", e.generation);
        ev.u64("path_len", e.path_len);
        if (::bgpsim::obs::edge_kind(e) !=
            ::bgpsim::obs::InfectionEdgeKind::Blocked) {
          ev.u64("displaced_len", e.displaced_len);
          ev.u64("displaced_origin", e.displaced_origin);
        }
        ev.emit();
      }
    }
  }
#endif  // BGPSIM_OBS_DISABLED

  attack_span.arg("target", target);
  attack_span.arg("attacker", attacker);
  attack_span.arg("polluted_ases", result.polluted_ases);
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("attack_result");
               ev.u64("target_asn", graph_.asn(target));
               ev.u64("attacker_asn", graph_.asn(attacker));
               ev.u64("polluted_ases", result.polluted_ases);
               ev.f64("polluted_fraction", result.polluted_address_fraction);
               ev.u64("routed_ases", result.routed_ases);
               ev.u64("generations", result.generations);
               ev.boolean("trace_enabled", traced);
               ev.u64("provenance_dropped", prov_dropped);
               // Under serve, the request id joins this record to its
               // access-log line; empty outside a request scope.
               if (!::bgpsim::obs::thread_request_id().empty()) {
                 ev.str("request_id", ::bgpsim::obs::thread_request_id());
               }
               ev.emit());
  (void)traced;  // unused under -DBGPSIM_OBS=OFF
  (void)prov_dropped;
  return result;
}

}  // namespace bgpsim
