// Asynchronous discrete-event BGP propagation with per-link delays.
//
// The paper's simulator is generation-synchronous ("in the next simulated
// clock tick"), which cannot express *when* things happen. This engine
// delivers each announcement after a deterministic per-link latency drawn
// once at construction, processing a global time-ordered event queue with
// the exact same policy (Adj-RIB-In, LOCAL_PREF, valley-free export, loop
// rejection) as GenerationEngine. It answers two questions the synchronous
// model cannot:
//   * are the paper's end-state results robust to asynchronous timing?
//     (tests assert end-state agreement with GenerationEngine), and
//   * how long until a detector's probe sees a hijack? (first_bogus_time).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

namespace obs {
class ProvenanceRecorder;  // obs/provenance.hpp
}  // namespace obs

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
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_accepted = 0;
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
  const Route& route(AsId v) const { return best_[v]; }
  void export_routes(RouteTable& out) const { out.routes = best_; }
  std::uint32_t count_origin(Origin origin) const;

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
  void set_provenance(obs::ProvenanceRecorder* recorder) { prov_ = recorder; }

 private:
  struct Message {
    double time = 0.0;
    std::uint64_t seq = 0;  ///< deterministic tiebreak for equal timestamps
    AsId from = kInvalidAs;
    AsId to = kInvalidAs;
    std::uint32_t to_slot = 0;  ///< position of `from` in `to`'s adjacency
    Origin origin = Origin::None;
    std::uint16_t len = 0;
    std::vector<AsId> path;

    bool operator>(const Message& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  struct RibEntry {
    Origin origin = Origin::None;
    RouteClass cls = RouteClass::None;
    std::uint16_t len = 0;
  };

  void schedule_exports(AsId v, double now);
  bool deliver(const Message& msg, const ValidatorSet* validators);
  void reselect(AsId v);
  /// Provenance hook: emit an adopt/cure edge when `now` differs materially
  /// from `before` and either side is Attacker-origin. No-op when unarmed.
  void record_provenance(AsId to, const Route& now, const Route& before);

  const AsGraph& graph_;
  EventEngineConfig config_;

  std::vector<std::uint32_t> mirror_;  // AsGraph::reverse_slots()
  std::vector<double> delay_;          // per directed edge

  std::vector<RibEntry> rib_;
  std::vector<std::vector<AsId>> rib_path_;
  static constexpr std::uint32_t kSelfSlot = 0xffffffffu;
  std::vector<Route> best_;
  std::vector<std::uint32_t> best_slot_;
  std::vector<std::vector<AsId>> best_path_;
  std::vector<double> first_bogus_;

  std::priority_queue<Message, std::vector<Message>, std::greater<>> queue_;
  std::uint64_t next_seq_ = 0;

  // Validator rejections during the current announce(); flushed to the
  // defense.validator_drops counter when it returns.
  std::uint64_t validator_drop_count_ = 0;

  // Pollution provenance (see set_provenance / obs/provenance.hpp).
  obs::ProvenanceRecorder* prov_ = nullptr;
};

}  // namespace bgpsim
