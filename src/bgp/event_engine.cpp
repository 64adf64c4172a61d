#include "bgp/event_engine.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace bgpsim {

EventEngine::EventEngine(const AsGraph& graph, EventEngineConfig config)
    : graph_(graph), config_(std::move(config)) {
  validate_engine_inputs(graph_, config_.policy);
  BGPSIM_REQUIRE(config_.min_delay > 0.0 && config_.max_delay >= config_.min_delay,
                 "bad delay range");
  const std::uint32_t n = graph_.num_ases();

  const std::uint32_t total_edges = graph_.num_directed_edges();
  mirror_ = graph_.reverse_slots();

  Rng rng(config_.delay_seed);
  delay_.resize(total_edges);
  for (auto& d : delay_) d = rng.uniform(config_.min_delay, config_.max_delay);

  rib_.assign(total_edges, RibEntry{});
  rib_path_.resize(total_edges);
  best_.assign(n, Route{});
  best_slot_.assign(n, kSelfSlot);
  best_path_.resize(n);
  first_bogus_.assign(n, -1.0);
  reset();
}

void EventEngine::reset() {
  std::fill(rib_.begin(), rib_.end(), RibEntry{});
  std::fill(best_.begin(), best_.end(), Route{});
  std::fill(best_slot_.begin(), best_slot_.end(), kSelfSlot);
  for (auto& path : best_path_) path.clear();
  std::fill(first_bogus_.begin(), first_bogus_.end(), -1.0);
  queue_ = {};
  next_seq_ = 0;
}

std::uint32_t EventEngine::count_origin(Origin origin) const {
  std::uint32_t count = 0;
  for (const Route& r : best_) count += (r.origin == origin);
  return count;
}

void EventEngine::schedule_exports(AsId v, double now) {
  const Route& route = best_[v];
  if (!route.valid()) return;
  const std::uint32_t base = graph_.edge_offset(v);
  const auto nbrs = graph_.neighbors(v);
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    const Neighbor& nbr = nbrs[k];
    if (!exports_to(route.cls, nbr.rel)) continue;
    if (nbr.id == route.via) continue;  // split horizon
    if (config_.policy.stub_first_hop_filter && route.cls == RouteClass::Self &&
        route.origin == Origin::Attacker && nbr.rel == Rel::Provider &&
        graph_.is_stub(v)) {
      continue;
    }
    Message msg;
    msg.time = now + delay_[base + k];
    msg.seq = next_seq_++;
    msg.from = v;
    msg.to = nbr.id;
    msg.to_slot = mirror_[base + k];
    msg.origin = route.origin;
    msg.len = static_cast<std::uint16_t>(route.path_len + 1);
    msg.path = best_path_[v];
    queue_.push(std::move(msg));
  }
}

bool EventEngine::deliver(const Message& msg, const ValidatorSet* validators) {
  const AsId to = msg.to;
  if (msg.origin == Origin::Attacker && validators != nullptr &&
      (*validators)[to] != 0) {
    ++validator_drop_count_;
    if (prov_ != nullptr) {
      prov_->record_edge(obs::make_edge(obs::InfectionEdgeKind::Blocked, to,
                                        msg.from, 0, msg.len));
    }
    return false;
  }
  if (std::find(msg.path.begin(), msg.path.end(), to) != msg.path.end()) {
    return false;  // loop
  }

  const std::uint32_t rib_idx = graph_.edge_offset(to) + msg.to_slot;
  const RibEntry old = rib_[rib_idx];
  const auto nbrs = graph_.neighbors(to);
  const RouteClass cls = route_class_from(nbrs[msg.to_slot].rel);
  const bool replaced_same = old.cls == cls && old.origin == msg.origin &&
                             old.len == msg.len && rib_path_[rib_idx] == msg.path;
  rib_[rib_idx] = RibEntry{msg.origin, cls, msg.len};
  rib_path_[rib_idx] = msg.path;

  const bool is_t1 = config_.policy.as_is_tier1(to);
  Route& best = best_[to];

  if (best_slot_[to] == rib_idx) {
    if (replaced_same) return false;
    if (!rank_better(best.cls, best.path_len, cls, msg.len, is_t1,
                     config_.policy.tier1_shortest_path)) {
      const Route before = best;
      best.origin = msg.origin;
      best.cls = cls;
      best.path_len = msg.len;
      best_path_[to].assign(1, to);
      best_path_[to].insert(best_path_[to].end(), msg.path.begin(), msg.path.end());
      record_provenance(to, best, before);
      return true;
    }
    reselect(to);
    return true;
  }

  if (strictly_better(best.cls, best.path_len, cls, msg.len, is_t1,
                      config_.policy.tier1_shortest_path)) {
    const Route before = best;
    best = Route{msg.origin, cls, msg.len, msg.from};
    best_slot_[to] = rib_idx;
    best_path_[to].assign(1, to);
    best_path_[to].insert(best_path_[to].end(), msg.path.begin(), msg.path.end());
    record_provenance(to, best, before);
    return true;
  }
  return false;
}

void EventEngine::reselect(AsId v) {
  const Route before = best_[v];
  const bool is_t1 = config_.policy.as_is_tier1(v);
  const std::uint32_t base = graph_.edge_offset(v);
  const auto nbrs = graph_.neighbors(v);
  Route best{};
  std::uint32_t best_idx = kSelfSlot;
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    const RibEntry& entry = rib_[base + k];
    if (entry.cls == RouteClass::None) continue;
    if (best_idx == kSelfSlot ||
        rank_better(entry.cls, entry.len, best.cls, best.path_len, is_t1,
                    config_.policy.tier1_shortest_path)) {
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
  record_provenance(v, best_[v], before);
}

void EventEngine::record_provenance(AsId to, const Route& now,
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
      to, now.valid() ? now.via : to, 0, now.path_len, before.path_len,
      static_cast<std::uint8_t>(before.origin)));
}

EventRunStats EventEngine::announce(AsId origin, Origin tag, double at_time,
                                    const ValidatorSet* validators) {
  BGPSIM_REQUIRE(origin < graph_.num_ases(), "announce: origin out of range");
  BGPSIM_REQUIRE(tag != Origin::None, "announce: tag must be Legit or Attacker");
  BGPSIM_REQUIRE(validators == nullptr || validators->size() == graph_.num_ases(),
                 "validator set size mismatch");
  BGPSIM_TIMED_SCOPE("event.announce");
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_start");
               ev.str("engine", "event");
               ev.u64("origin_asn", graph_.asn(origin));
               ev.str("tag", to_string(tag));
               ev.f64("at_time", at_time);
               ev.emit());
  validator_drop_count_ = 0;

  best_[origin] = Route{tag, RouteClass::Self, 1, kInvalidAs};
  best_slot_[origin] = kSelfSlot;
  best_path_[origin].assign(1, origin);
  if (tag == Origin::Attacker && first_bogus_[origin] < 0.0) {
    first_bogus_[origin] = at_time;
  }
  schedule_exports(origin, at_time);

  EventRunStats stats;
  stats.quiescent_time = at_time;
  [[maybe_unused]] std::size_t queue_peak = queue_.size();
  while (!queue_.empty()) {
    if (queue_.size() > queue_peak) queue_peak = queue_.size();
    if (stats.messages_delivered >= config_.max_events) {
      stats.converged = false;
      break;
    }
    const Message msg = queue_.top();
    queue_.pop();
    ++stats.messages_delivered;
    stats.quiescent_time = msg.time;
    if (deliver(msg, validators)) {
      ++stats.messages_accepted;
      if (best_[msg.to].origin == Origin::Attacker && first_bogus_[msg.to] < 0.0) {
        first_bogus_[msg.to] = msg.time;
      }
      schedule_exports(msg.to, msg.time);
    }
  }

  BGPSIM_COUNTER_ADD("engine.event_msgs_delivered", stats.messages_delivered);
  BGPSIM_COUNTER_ADD("engine.event_msgs_accepted", stats.messages_accepted);
  if (validator_drop_count_ != 0) {
    BGPSIM_COUNTER_ADD("defense.validator_drops", validator_drop_count_);
  }
  // The event engine has no synchronous frontier; the in-flight message
  // queue's high-water mark is its convergence-shape equivalent.
  BGPSIM_HISTOGRAM_OBSERVE("engine.event_queue_peak",
                           ::bgpsim::obs::HistogramSpec::exponential(1.0, 2.0, 26),
                           queue_peak);
  BGPSIM_EVENT(::bgpsim::obs::EventRecord ev("run_end");
               ev.str("engine", "event");
               ev.boolean("converged", stats.converged);
               ev.u64("messages_delivered", stats.messages_delivered);
               ev.u64("messages_accepted", stats.messages_accepted);
               ev.u64("queue_peak", queue_peak);
               ev.f64("quiescent_time", stats.quiescent_time);
               ev.emit());
  return stats;
}

}  // namespace bgpsim
