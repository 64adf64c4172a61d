// Asynchronous discrete-event BGP propagation with per-link delays.
//
// The paper's simulator is generation-synchronous ("in the next simulated
// clock tick"), which cannot express *when* things happen. This engine
// delivers each announcement after a deterministic per-link latency drawn
// once at construction, processing a global time-ordered event queue. The
// decision process is the one GenerationEngine runs (bgp/speaker.hpp); only
// the schedule differs. It answers two questions the synchronous model
// cannot:
//   * are the paper's end-state results robust to asynchronous timing?
//     (audit_runner and the tests assert the same end state as
//     EquilibriumEngine at every AS), and
//   * how long until a detector's probe sees a hijack? (first_bogus_time).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "bgp/speaker.hpp"

namespace bgpsim {

struct EventEngineConfig {
  PolicyConfig policy;

  /// Per-link one-way delay is uniform in [min_delay, max_delay) seconds,
  /// sampled once per directed edge from `delay_seed`.
  double min_delay = 0.01;
  double max_delay = 0.20;
  std::uint64_t delay_seed = 1;

  /// Safety cap on processed messages (converged=false when exceeded).
  std::uint64_t max_events = 50'000'000;
};

struct EventRunStats {
  std::uint64_t messages_delivered = 0;  ///< announcements and WITHDRAWs
  std::uint64_t messages_accepted = 0;   ///< deliveries that changed a selection
  double quiescent_time = 0.0;  ///< timestamp of the last delivery
  bool converged = true;
};

class EventEngine {
 public:
  /// The graph must be sibling-free (see contract_siblings).
  EventEngine(const AsGraph& graph, EventEngineConfig config);

  void reset();

  /// Originate at `at_time` and process events to quiescence. Like
  /// GenerationEngine, can be called again (hijack = Legit then Attacker).
  EventRunStats announce(AsId origin, Origin tag, double at_time,
                         const ValidatorSet* validators = nullptr);

  const AsGraph& graph() const { return graph_; }
  const Route& route(AsId v) const { return speaker_.route(v); }
  /// Full AS path of v's selected route: [v, next hop, ..., origin].
  const std::vector<AsId>& path_of(AsId v) const { return speaker_.path_of(v); }
  void export_routes(RouteTable& out) const { speaker_.export_routes(out); }
  std::uint32_t count_origin(Origin origin) const {
    return speaker_.count_origin(origin);
  }

  /// Time the AS first *selected* an Attacker-tagged route, or a negative
  /// value when it never did. Survives across announce() calls until reset().
  double first_bogus_time(AsId v) const { return first_bogus_[v]; }

  /// One-way delay of the directed link (u -> its k-th neighbor).
  double link_delay(AsId u, std::uint32_t slot) const {
    return delay_[graph_.edge_offset(u) + slot];
  }

  /// Record infection edges (adopt/cure/blocked; see obs/provenance.hpp)
  /// into `recorder` during subsequent announce() calls; nullptr stops
  /// recording. The event engine has no generation clock, so the edge
  /// `generation` field is always 0. Recording never changes routing.
  void set_provenance(obs::ProvenanceRecorder* recorder) {
    speaker_.set_provenance(recorder);
  }

 private:
  struct Message {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< deterministic tiebreak for equal timestamps
    Speaker::Export kind = Speaker::Export::Announce;  ///< Silent = WITHDRAW
    AsId from = kInvalidAs;
    AsId to = kInvalidAs;
    std::uint32_t to_slot = 0;  ///< position of `from` in `to`'s adjacency
    Speaker::RibEntry entry;
    std::vector<AsId> path;

    bool operator>(const Message& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  /// Tell every neighbor what v's (changed) selection means for it. Each
  /// directed link has one fixed delay and seq breaks timestamp ties, so
  /// messages on a link arrive in the order they were sent.
  void schedule_exports(AsId v, double now);

  const AsGraph& graph_;
  EventEngineConfig config_;
  Speaker speaker_;

  std::vector<double> delay_;  // per directed edge
  // Per directed edge: the last message sent on it was an announcement, so
  // the receiver holds (or will hold) a route from it. The sender cannot
  // peek at the receiver's Adj-RIB-In, since an announcement may still be
  // in flight; this is what decides whether losing export eligibility
  // needs a WITHDRAW.
  std::vector<std::uint8_t> announced_;
  std::vector<double> first_bogus_;

  std::priority_queue<Message, std::vector<Message>, std::greater<>> queue_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace bgpsim
