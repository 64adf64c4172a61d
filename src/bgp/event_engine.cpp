#include "bgp/event_engine.hpp"

#include <algorithm>

#include "obs/obs.hpp"
#include "support/assert.hpp"
#include "support/rng.hpp"

namespace bgpsim {

EventEngine::EventEngine(const AsGraph& graph, EventEngineConfig config)
    : graph_(graph), config_(std::move(config)), speaker_(graph_, config_.policy) {
  BGPSIM_REQUIRE(config_.min_delay > 0.0 && config_.max_delay >= config_.min_delay,
                 "bad delay range");
  Rng rng(config_.delay_seed);
  delay_.resize(graph_.num_directed_edges());
  for (auto& d : delay_) d = rng.uniform(config_.min_delay, config_.max_delay);
  announced_.assign(graph_.num_directed_edges(), 0);
  first_bogus_.assign(graph_.num_ases(), -1.0);
}

void EventEngine::reset() {
  speaker_.reset();
  std::fill(announced_.begin(), announced_.end(), 0);
  std::fill(first_bogus_.begin(), first_bogus_.end(), -1.0);
  queue_ = {};
  next_seq_ = 0;
}

void EventEngine::schedule_exports(AsId v, double now) {
  const std::uint32_t base = graph_.edge_offset(v);
  const auto nbrs = graph_.neighbors(v);
  for (std::uint32_t k = 0; k < nbrs.size(); ++k) {
    const Neighbor& nbr = nbrs[k];
    const Speaker::Export kind = speaker_.export_decision(v, nbr);
    const bool was_announced = announced_[base + k] != 0;
    announced_[base + k] = kind == Speaker::Export::Announce;
    if (kind == Speaker::Export::Silent && !was_announced) continue;
    Message msg;
    msg.time = now + delay_[base + k];
    msg.seq = next_seq_++;
    msg.kind = kind;
    msg.from = v;
    msg.to = nbr.id;
    msg.to_slot = speaker_.mirror(base + k);
    if (kind == Speaker::Export::Announce) {
      msg.entry = speaker_.offer(v, nbr);
      msg.path = speaker_.path_of(v);
    }
    queue_.push(std::move(msg));
  }
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
  speaker_.originate(origin, tag);
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
    if (speaker_.receive(msg.kind, msg.from, msg.to, msg.to_slot, msg.entry,
                         msg.path, validators)) {
      ++stats.messages_accepted;
      if (speaker_.route(msg.to).origin == Origin::Attacker &&
          first_bogus_[msg.to] < 0.0) {
        first_bogus_[msg.to] = msg.time;
      }
      schedule_exports(msg.to, msg.time);
    }
  }

  BGPSIM_COUNTER_ADD("engine.event_msgs_delivered", stats.messages_delivered);
  BGPSIM_COUNTER_ADD("engine.event_msgs_accepted", stats.messages_accepted);
  if (const std::uint64_t drops = speaker_.take_validator_drops(); drops != 0) {
    BGPSIM_COUNTER_ADD("defense.validator_drops", drops);
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
