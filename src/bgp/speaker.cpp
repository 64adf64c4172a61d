#include "bgp/speaker.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace bgpsim {

Speaker::Speaker(const AsGraph& graph, PolicyConfig config)
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
  offered_bogus_.assign(n, 0);
}

void Speaker::reset() {
  std::fill(rib_.begin(), rib_.end(), RibEntry{});
  std::fill(best_.begin(), best_.end(), Route{});
  std::fill(best_slot_.begin(), best_slot_.end(), kSelfSlot);
  for (auto& path : best_path_) path.clear();
  // rib_path_ contents are stale but unreachable: entries with
  // RouteClass::None are never read.
  std::fill(offered_bogus_.begin(), offered_bogus_.end(), 0);
}

void Speaker::originate(AsId origin, Origin tag, AsId forged_tail) {
  best_path_[origin].assign(1, origin);
  if (forged_tail != kInvalidAs) best_path_[origin].push_back(forged_tail);
  best_[origin] = Route{tag, RouteClass::Self,
                        static_cast<std::uint16_t>(best_path_[origin].size()),
                        kInvalidAs};
  best_slot_[origin] = kSelfSlot;
}

std::uint32_t Speaker::count_origin(Origin origin) const {
  std::uint32_t count = 0;
  for (const Route& r : best_) count += (r.origin == origin);
  return count;
}

std::uint64_t Speaker::take_validator_drops() {
  const std::uint64_t drops = validator_drops_;
  validator_drops_ = 0;
  return drops;
}

void Speaker::record_provenance(AsId to, const Route& now, const Route& before) {
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
      to, now.valid() ? now.via : to, generation_, now.path_len,
      before.path_len, static_cast<std::uint8_t>(before.origin)));
}

bool Speaker::deliver(AsId from, AsId to, std::uint32_t rib_idx,
                      const RibEntry& entry, const std::vector<AsId>& path,
                      const ValidatorSet* validators) {
  if (entry.origin == Origin::Attacker) offered_bogus_[to] = 1;

  // An UPDATE replaces whatever this neighbor announced before, so a rejected
  // one leaves no route behind (RFC 7606 treat-as-withdraw). Without this,
  // the receiver keeps using a route its neighbor no longer has.
  //
  // Route-origin validation: a deploying AS drops bogus announcements.
  if (entry.origin == Origin::Attacker && validators != nullptr &&
      (*validators)[to] != 0) {
    ++validator_drops_;
    if (prov_ != nullptr) {
      prov_->record_edge(obs::make_edge(obs::InfectionEdgeKind::Blocked, to,
                                        from, generation_, entry.len));
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

void Speaker::reselect(AsId v) {
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

}  // namespace bgpsim
