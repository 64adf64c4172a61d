#include "bgp/generation_engine.hpp"

#include <algorithm>

#include "bgp/introspect.hpp"
#include "obs/obs.hpp"
#include "support/assert.hpp"

namespace bgpsim {

GenerationEngine::GenerationEngine(const AsGraph& graph, PolicyConfig config)
    : graph_(graph), config_(std::move(config)) {
  validate_engine_inputs(graph_, config_);
  const std::uint32_t n = graph_.num_ases();

  const std::uint32_t total_edges = graph_.num_directed_edges();
  mirror_ = graph_.reverse_slots();

  rib_.assign(total_edges, RibEntry{});
  rib_path_.resize(total_edges);
  best_.assign(n, Route{});
  best_slot_.assign(n, kSelfSlot);
  best_path_.resize(n);
  changed_flag_.assign(n, 0);
  offered_bogus_.assign(n, 0);
  reset();
}

void GenerationEngine::reset() {
  std::fill(rib_.begin(), rib_.end(), RibEntry{});
  std::fill(best_.begin(), best_.end(), Route{});
  std::fill(best_slot_.begin(), best_slot_.end(), kSelfSlot);
  for (auto& path : best_path_) path.clear();
  // rib_path_ contents are stale but unreachable: entries with
  // RouteClass::None are never read.
  std::fill(changed_flag_.begin(), changed_flag_.end(), 0);
  std::fill(offered_bogus_.begin(), offered_bogus_.end(), 0);
  frontier_.clear();
  next_frontier_.clear();
}

void GenerationEngine::export_routes(RouteTable& out) const {
  out.routes = best_;
}

std::uint32_t GenerationEngine::count_origin(Origin origin) const {
  std::uint32_t count = 0;
  for (const Route& r : best_) count += (r.origin == origin);
  return count;
}

void GenerationEngine::record_provenance(AsId to, const Route& now,
                                         const Route& before) {
  if (prov_ == nullptr) return;
  const bool now_bad = now.origin == Origin::Attacker;
  const bool was_bad = before.origin == Origin::Attacker;
  if (!now_bad && !was_bad) return;
  if (now_bad && was_bad && now.via == before.via &&
      now.path_len == before.path_len) {
    return;  // still the same bogus route; nothing changed materially
  }
  prov_->record_edge(obs::make_edge(
      now_bad ? obs::InfectionEdgeKind::Adopt : obs::InfectionEdgeKind::Cure,
      to, now.valid() ? now.via : to, current_generation_, now.path_len,
      before.path_len, static_cast<std::uint8_t>(before.origin)));
}

bool GenerationEngine::withdraw(AsId to, std::uint32_t rib_idx) {
  if (rib_[rib_idx].cls == RouteClass::None) return false;
  rib_[rib_idx] = RibEntry{};
  rib_path_[rib_idx].clear();
  if (best_slot_[to] == rib_idx) {
    reselect(to);
    return true;
  }
  return false;
}

bool GenerationEngine::deliver(AsId from, AsId to, std::uint32_t to_slot,
                               const RibEntry& entry,
                               const std::vector<AsId>& path,
                               const ValidatorSet* validators) {
  if (entry.origin == Origin::Attacker) offered_bogus_[to] = 1;

  const std::uint32_t rib_idx = graph_.edge_offset(to) + to_slot;

  // An UPDATE replaces whatever this neighbor announced before, so a rejected
  // one leaves no route behind (RFC 7606 treat-as-withdraw). Without this,
  // the receiver keeps using a route its neighbor no longer has.
  //
  // Route-origin validation: a deploying AS drops bogus announcements.
  if (entry.origin == Origin::Attacker && validators != nullptr &&
      (*validators)[to] != 0) {
    ++validator_drop_count_;
    if (prov_ != nullptr) {
      prov_->record_edge(obs::make_edge(obs::InfectionEdgeKind::Blocked, to,
                                        from, current_generation_, entry.len));
    }
    return withdraw(to, rib_idx);
  }
  // Loop rejection: the receiver appears in the announced AS path.
  if (std::find(path.begin(), path.end(), to) != path.end()) {
    return withdraw(to, rib_idx);
  }

  const RibEntry old = rib_[rib_idx];
  const bool replaced_same = old.cls == entry.cls && old.origin == entry.origin &&
                             old.len == entry.len && rib_path_[rib_idx] == path;
  rib_[rib_idx] = entry;
  rib_path_[rib_idx] = path;

  const bool is_t1 = config_.as_is_tier1(to);
  Route& best = best_[to];

  if (best_slot_[to] == rib_idx) {
    // Implicit withdraw: the neighbor replaced the route we were using.
    if (replaced_same) return false;
    const bool improved = rank_better(entry.cls, entry.len, best.cls,
                                      best.path_len, is_t1,
                                      config_.tier1_shortest_path);
    const bool degraded = rank_better(best.cls, best.path_len, entry.cls,
                                      entry.len, is_t1,
                                      config_.tier1_shortest_path);
    // Keep using the same neighbor when the replacement is still guaranteed
    // best: strictly improved (nothing else in the Adj-RIB-In can displace
    // it), or equal rank without downgrading to the attacker's origin (an
    // equal-rank legitimate route elsewhere in the RIB would win the tie).
    if (improved ||
        (!degraded && (entry.origin == best.origin ||
                       entry.origin == Origin::Legit))) {
      const Route before = best;
      best.origin = entry.origin;
      best.cls = entry.cls;
      best.path_len = entry.len;
      best_path_[to].assign(1, to);
      best_path_[to].insert(best_path_[to].end(), path.begin(), path.end());
      record_provenance(to, best, before);
      return true;
    }
    // Degraded (or an equal-rank origin downgrade): fall back to the full
    // Adj-RIB-In.
    reselect(to);
    return true;
  }

  if (displaces(best.origin, best.cls, best.path_len, entry.origin, entry.cls,
                entry.len, is_t1, config_.tier1_shortest_path)) {
    const Route before = best;
    best = Route{entry.origin, entry.cls, entry.len, from};
    best_slot_[to] = rib_idx;
    best_path_[to].assign(1, to);
    best_path_[to].insert(best_path_[to].end(), path.begin(), path.end());
    record_provenance(to, best, before);
    return true;
  }
  return false;
}

void GenerationEngine::set_decision_watch(AsId watched, DecisionHistory* history) {
#if defined(BGPSIM_OBS_DISABLED)
  (void)watched;
  (void)history;
#else
  if (history != nullptr) {
    BGPSIM_REQUIRE(watched < graph_.num_ases(),
                   "set_decision_watch: AS out of range");
    history->watched = watched;
  }
  watch_history_ = history;
  watch_as_ = history != nullptr ? watched : kInvalidAs;
  watch_round_ = 0;
#endif
}

void GenerationEngine::snapshot_watch(std::uint32_t generation) {
#if defined(BGPSIM_OBS_DISABLED)
  (void)generation;
#else
  const AsId v = watch_as_;
  const bool is_t1 = config_.as_is_tier1(v);

  DecisionSnapshot snap;
  snap.announce_round = watch_round_;
  snap.generation = generation;
  snap.selected = best_[v];
  snap.selected_path = best_path_[v];

  if (best_slot_[v] == kSelfSlot && best_[v].valid()) {
    DecisionCandidate self;
    self.neighbor = kInvalidAs;
    self.origin = best_[v].origin;
    self.cls = RouteClass::Self;
    self.len = best_[v].path_len;
    snap.candidates.push_back(std::move(self));
  }
  const std::uint32_t base = graph_.edge_offset(v);
  const auto nbrs = graph_.neighbors(v);
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    const RibEntry& entry = rib_[base + k];
    if (entry.cls == RouteClass::None) continue;
    DecisionCandidate cand;
    cand.neighbor = nbrs[k].id;
    cand.origin = entry.origin;
    cand.cls = entry.cls;
    cand.len = entry.len;
    cand.path = rib_path_[base + k];
    snap.candidates.push_back(std::move(cand));
  }

  // Rank in the engine's strict total order; stable sort keeps the residual
  // ascending-neighbor tie order candidates were gathered in.
  std::stable_sort(
      snap.candidates.begin(), snap.candidates.end(),
      [&](const DecisionCandidate& a, const DecisionCandidate& b) {
        if (rank_better(a.cls, a.len, b.cls, b.len, is_t1,
                        config_.tier1_shortest_path)) {
          return true;
        }
        if (rank_better(b.cls, b.len, a.cls, a.len, is_t1,
                        config_.tier1_shortest_path)) {
          return false;
        }
        return a.origin == Origin::Legit && b.origin == Origin::Attacker;
      });
  for (std::uint32_t rank = 0; rank < snap.candidates.size(); ++rank) {
    DecisionCandidate& cand = snap.candidates[rank];
    cand.rank = rank + 1;
    cand.selected = rank == 0;
    cand.reason = rank == 0
                      ? (snap.candidates.size() == 1
                             ? "only candidate"
                             : "best rank among " +
                                   std::to_string(snap.candidates.size()) +
                                   " candidates")
                      : losing_reason(snap.selected, cand.origin, cand.cls,
                                      cand.len, is_t1,
                                      config_.tier1_shortest_path);
  }

  // Record only generations where the watched state actually moved.
  if (!watch_history_->snapshots.empty()) {
    const DecisionSnapshot& last = watch_history_->snapshots.back();
    const auto same_route = [](const Route& a, const Route& b) {
      return a.origin == b.origin && a.cls == b.cls && a.path_len == b.path_len &&
             a.via == b.via;
    };
    bool unchanged = same_route(last.selected, snap.selected) &&
                     last.selected_path == snap.selected_path &&
                     last.candidates.size() == snap.candidates.size();
    for (std::size_t i = 0; unchanged && i < snap.candidates.size(); ++i) {
      const DecisionCandidate& a = last.candidates[i];
      const DecisionCandidate& b = snap.candidates[i];
      unchanged = a.neighbor == b.neighbor && a.origin == b.origin &&
                  a.cls == b.cls && a.len == b.len && a.path == b.path;
    }
    if (unchanged) return;
  }
  watch_history_->snapshots.push_back(std::move(snap));
#endif
}

void GenerationEngine::reselect(AsId v) {
  const bool is_t1 = config_.as_is_tier1(v);
  const std::uint32_t base = graph_.edge_offset(v);
  const auto nbrs = graph_.neighbors(v);
  const Route before = best_[v];
  Route best{};
  std::uint32_t best_idx = kSelfSlot;
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    const RibEntry& entry = rib_[base + k];
    if (entry.cls == RouteClass::None) continue;
    // Ascending slot order keeps the remaining full ties on the lowest
    // neighbor id, matching EquilibriumEngine's tie order.
    if (best_idx == kSelfSlot ||
        displaces(best.origin, best.cls, best.path_len, entry.origin,
                  entry.cls, entry.len, is_t1, config_.tier1_shortest_path)) {
      best = Route{entry.origin, entry.cls, entry.len, nbrs[k].id};
      best_idx = base + k;
    }
  }
  best_[v] = best;
  best_slot_[v] = best_idx;
  if (best_idx != kSelfSlot) {
    best_path_[v].assign(1, v);
    best_path_[v].insert(best_path_[v].end(), rib_path_[best_idx].begin(),
                         rib_path_[best_idx].end());
  } else {
    best_path_[v].clear();
  }
  record_provenance(v, best, before);
}

ConvergeStats GenerationEngine::announce(AsId origin, Origin tag,
                                         const ValidatorSet* validators,
                                         PropagationTrace* trace,
                                         AsId forged_tail) {
  BGPSIM_REQUIRE(origin < graph_.num_ases(), "announce: origin out of range");
  BGPSIM_REQUIRE(tag != Origin::None, "announce: tag must be Legit or Attacker");
  BGPSIM_REQUIRE(validators == nullptr || validators->size() == graph_.num_ases(),
                 "validator set size mismatch");
  BGPSIM_REQUIRE(forged_tail == kInvalidAs ||
                     (forged_tail < graph_.num_ases() && forged_tail != origin),
                 "announce: bad forged_tail");

  BGPSIM_TIMED_SCOPE("generation.announce");
  validator_drop_count_ = 0;
  current_generation_ = 0;

  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_start");
               ev.str("engine", "generation");
               ev.u64("origin_asn", graph_.asn(origin));
               ev.str("tag", to_string(tag));
               ev.boolean("forged_path", forged_tail != kInvalidAs);
               ev.emit());

  ConvergeStats stats;

  // Originate: a self route always wins locally (the attacker overrides any
  // legitimate route it holds for the hijacked prefix).
  best_path_[origin].assign(1, origin);
  if (forged_tail != kInvalidAs) best_path_[origin].push_back(forged_tail);
  best_[origin] = Route{tag, RouteClass::Self,
                        static_cast<std::uint16_t>(best_path_[origin].size()),
                        kInvalidAs};
  best_slot_[origin] = kSelfSlot;

  frontier_.assign(1, origin);
  changed_flag_[origin] = 1;

#if !defined(BGPSIM_OBS_DISABLED)
  if (watch_history_ != nullptr) {
    ++watch_round_;
    snapshot_watch(0);  // state at origination (before any propagation)
  }
#endif

  // Safety cap only; Gao–Rexford-compatible policies converge long before.
  const std::uint32_t generation_cap = 4 * graph_.num_ases() + 16;

#if !defined(BGPSIM_OBS_DISABLED)
  ::bgpsim::obs::StopWatch gen_watch;
#endif

  while (!frontier_.empty() && stats.generations < generation_cap) {
    ++stats.generations;
    current_generation_ = stats.generations;
    next_frontier_.clear();
    std::sort(frontier_.begin(), frontier_.end());

    [[maybe_unused]] const std::uint64_t gen_sent_before = stats.messages_sent;
    [[maybe_unused]] const std::uint64_t gen_accepted_before =
        stats.messages_accepted;
    [[maybe_unused]] const std::uint64_t gen_withdrawals_before =
        stats.withdrawals;

    BGPSIM_TRACE_SPAN(gen_span, "generation");
    gen_span.arg("generation", stats.generations);
    gen_span.arg("frontier", static_cast<double>(frontier_.size()));

    GenerationFrame frame;
    if (trace != nullptr) frame.generation = stats.generations;

    for (const AsId v : frontier_) {
      changed_flag_[v] = 0;
      const Route& route = best_[v];
      const std::vector<AsId>& announce_path = best_path_[v];
      const RibEntry entry{route.origin, RouteClass::None,
                           static_cast<std::uint16_t>(route.path_len + 1)};
      const std::uint32_t base = graph_.edge_offset(v);
      const auto nbrs = graph_.neighbors(v);
      for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
        const Neighbor& nbr = nbrs[k];
        const std::uint32_t peer_rib_idx =
            graph_.edge_offset(nbr.id) + mirror_[base + k];
        // Valley-free export plus poison reverse: no route, a route class
        // this edge must not carry, or a route through the neighbor itself
        // all mean "nothing to offer". If an earlier selection WAS exported
        // on this edge, the neighbor still holds it, so send an explicit
        // WITHDRAW — announce-only propagation would leave the neighbor
        // routing through a path that no longer exists (e.g. below a tier-1
        // that switched from its customer route to a shorter peer route).
        const bool exportable = route.valid() && exports_to(route.cls, nbr.rel) &&
                                nbr.id != route.via;
        if (!exportable) {
          if (rib_[peer_rib_idx].cls == RouteClass::None) continue;
          ++stats.messages_sent;
          ++stats.withdrawals;
          const bool changed = withdraw(nbr.id, peer_rib_idx);
          if (changed) {
            ++stats.messages_accepted;
            if (!changed_flag_[nbr.id]) {
              changed_flag_[nbr.id] = 1;
              next_frontier_.push_back(nbr.id);
            }
          }
          if (trace != nullptr) {
            frame.edges.emplace_back(v, nbr.id, changed, best_[nbr.id].origin);
          }
          continue;
        }
        // Optimistic first-hop defense (fig. 4): a provider knows its *stub*
        // customers' prefixes and drops a bogus origination arriving directly
        // from one (transit customers legitimately re-announce third-party
        // prefixes, so they cannot be filtered this way).
        if (config_.stub_first_hop_filter && route.cls == RouteClass::Self &&
            route.origin == Origin::Attacker && nbr.rel == Rel::Provider &&
            graph_.is_stub(v)) {
          // The provider still *receives* the bogus origination before
          // discarding it ("heard" detection semantics); the discarded
          // update still replaces (withdraws) the stub's earlier route.
          offered_bogus_[nbr.id] = 1;
          ++stats.messages_sent;
          if (withdraw(nbr.id, peer_rib_idx)) {
            ++stats.messages_accepted;
            if (!changed_flag_[nbr.id]) {
              changed_flag_[nbr.id] = 1;
              next_frontier_.push_back(nbr.id);
            }
          }
          continue;
        }
        RibEntry delivered = entry;
        delivered.cls = route_class_from(inverse(nbr.rel));
        ++stats.messages_sent;
        const bool accepted = deliver(v, nbr.id, mirror_[base + k], delivered,
                                      announce_path, validators);
        if (accepted) {
          ++stats.messages_accepted;
          if (!changed_flag_[nbr.id]) {
            changed_flag_[nbr.id] = 1;
            next_frontier_.push_back(nbr.id);
          }
        }
        if (trace != nullptr) {
          frame.edges.emplace_back(v, nbr.id, accepted, best_[nbr.id].origin);
        }
      }
    }

    if (trace != nullptr) {
      frame.messages_sent = static_cast<std::uint32_t>(frame.edges.size());
      frame.messages_accepted = 0;
      for (const TraceEdge& e : frame.edges) frame.messages_accepted += e.accepted;
      frame.polluted_so_far = count_origin(Origin::Attacker);
      trace->frames.push_back(std::move(frame));
    }
    // Perfetto counter track: pollution over simulated generations. The
    // count is O(n), so only pay for it when a trace file is being written.
    BGPSIM_TRACE_COUNTER("engine.polluted_ases",
                         static_cast<double>(count_origin(Origin::Attacker)));
#if !defined(BGPSIM_OBS_DISABLED)
    // Per-generation convergence shape: frontier width, traffic, and wall
    // time. These histograms are what decides how ROADMAP item 4's
    // frontier-parallel inner loop gets chunked — a run dominated by a few
    // huge generations parallelizes very differently from one with many
    // narrow ones.
    const double gen_us = gen_watch.elapsed_seconds() * 1e6;
    gen_watch.restart();
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_size",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 22),
        frontier_.size());
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_messages",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 26),
        stats.messages_sent - gen_sent_before);
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_withdrawals",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 26),
        stats.withdrawals - gen_withdrawals_before);
    BGPSIM_HISTOGRAM_OBSERVE(
        "engine.frontier_gen_us",
        ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 30), gen_us);
#endif
    // Same O(n) caveat for the event-log pollution field: the count runs
    // only when an event log is active.
    BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("generation_end");
                 ev.u64("generation", stats.generations);
                 ev.u64("frontier", frontier_.size());
                 ev.u64("messages_sent", stats.messages_sent - gen_sent_before);
                 ev.u64("messages_accepted",
                        stats.messages_accepted - gen_accepted_before);
                 ev.u64("withdrawals", stats.withdrawals - gen_withdrawals_before);
                 ev.f64("gen_us", gen_us);
                 ev.u64("polluted", count_origin(Origin::Attacker));
                 ev.emit());

#if !defined(BGPSIM_OBS_DISABLED)
    if (watch_history_ != nullptr) snapshot_watch(stats.generations);
#endif

    frontier_.swap(next_frontier_);
  }

  stats.converged = frontier_.empty();
  BGPSIM_COUNTER_ADD("engine.announce_runs", 1);
  BGPSIM_COUNTER_ADD("engine.msgs_propagated", stats.messages_sent);
  BGPSIM_COUNTER_ADD("engine.msgs_accepted", stats.messages_accepted);
  BGPSIM_COUNTER_ADD("engine.withdrawals", stats.withdrawals);
  if (validator_drop_count_ != 0) {
    BGPSIM_COUNTER_ADD("defense.validator_drops", validator_drop_count_);
  }
  BGPSIM_HISTOGRAM_OBSERVE("engine.generations_to_converge",
                           ::bgpsim::obs::HistogramSpec::linear(0, 64, 64),
                           stats.generations);
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_end");
               ev.str("engine", "generation");
               ev.boolean("converged", stats.converged);
               ev.u64("generations", stats.generations);
               ev.u64("messages_sent", stats.messages_sent);
               ev.u64("messages_accepted", stats.messages_accepted);
               ev.u64("withdrawals", stats.withdrawals);
               ev.u64("polluted", count_origin(Origin::Attacker));
               ev.emit());
  return stats;
}

}  // namespace bgpsim
