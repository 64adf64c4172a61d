// Faithful reconstruction of the paper's simulator (§III): synchronous
// generation-stepped BGP message propagation with per-neighbor Adj-RIB-In,
// LOCAL_PREF policy, valley-free export, and convergence detection.
//
// "BGP Announcements are propagated to neighboring ASes in step-wise fashion.
//  ... Generation after generation of message propagation continues until
//  convergence is reached. Convergence is generally reached within 5 to 10
//  generations."
//
// This engine keeps full AS paths (for loop rejection and visualization) and
// per-generation traces for the paper's polar-graph figures. For bulk
// parameter sweeps use EquilibriumEngine, which computes the same stable
// state in one O(V+E) pass; their agreement is validated in tests.
#pragma once

#include <cstdint>
#include <vector>

#include "bgp/policy.hpp"
#include "bgp/types.hpp"
#include "topology/as_graph.hpp"

namespace bgpsim {

namespace obs {
class ProvenanceRecorder;  // obs/provenance.hpp
}  // namespace obs

struct DecisionHistory;  // bgp/introspect.hpp

/// One observed message delivery, for visualization and detection replay.
struct TraceEdge {
  AsId from = kInvalidAs;
  AsId to = kInvalidAs;
  bool accepted = false;  ///< did the receiver change its selection?
  /// Origin of the receiver's selected route right after this delivery
  /// (None when it ended up routeless) — lets detection replay find the
  /// generation a probe first adopted the attacker's route.
  Origin new_origin = Origin::None;
};

/// Per-generation record of a propagation (drives the paper's figure 1).
struct GenerationFrame {
  std::uint32_t generation = 0;
  std::uint32_t messages_sent = 0;
  std::uint32_t messages_accepted = 0;
  std::uint32_t polluted_so_far = 0;  ///< ASes currently selecting the attacker
  std::vector<TraceEdge> edges;
};

struct PropagationTrace {
  std::vector<GenerationFrame> frames;
};

/// Outcome of one announce() call.
struct ConvergeStats {
  std::uint32_t generations = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_accepted = 0;
  std::uint64_t withdrawals = 0;  ///< explicit WITHDRAWs among messages_sent
  bool converged = false;  ///< false only if the generation cap was hit
};

class GenerationEngine {
 public:
  /// The graph must be sibling-free (see contract_siblings).
  GenerationEngine(const AsGraph& graph, PolicyConfig config);

  /// Forget all routing state (start a new prefix).
  void reset();

  /// Originate the prefix at `origin` tagged with `tag` and propagate to
  /// quiescence. May be called again with a second origin (the hijack case:
  /// Legit first, then Attacker) — existing state persists and competes.
  ///
  /// `validators`, when given, marks ASes that drop Attacker-tagged routes.
  /// `trace`, when given, records per-generation frames.
  /// `forged_tail`, when valid, prepends the origin to a spoofed AS path
  /// ending in that AS ([origin, forged_tail]) — the forged-origin attack
  /// that evades origin validation; the spoofed AS itself still rejects the
  /// announcement by loop detection.
  ConvergeStats announce(AsId origin, Origin tag,
                         const ValidatorSet* validators = nullptr,
                         PropagationTrace* trace = nullptr,
                         AsId forged_tail = kInvalidAs);

  const AsGraph& graph() const { return graph_; }

  /// Selected route of each AS (valid after announce()).
  const Route& route(AsId v) const { return best_[v]; }

  /// Copy the selected-route table (origin/class/len/via per AS).
  void export_routes(RouteTable& out) const;

  /// True when at least one Attacker-tagged announcement was *delivered* to
  /// this AS (even if rejected by validation, loop check, or preference).
  /// Distinguishes the paper's "received and propagated onwards" detection
  /// semantics (route(v).origin == Attacker) from plain "received".
  bool offered_bogus(AsId v) const { return offered_bogus_[v] != 0; }

  /// Full AS path of v's selected route: [v, next hop, ..., origin].
  /// Empty when v has no route; [v] when v originates the prefix.
  const std::vector<AsId>& path_of(AsId v) const { return best_path_[v]; }

  std::uint32_t count_origin(Origin origin) const;

  /// Record `watched`'s per-generation decision snapshots (Adj-RIB-In
  /// candidates, rank, why displaced) into `history` during subsequent
  /// announce() calls; nullptr stops watching. Costs O(degree(watched)) per
  /// generation while watching; collection compiles out (and this becomes a
  /// no-op) under -DBGPSIM_OBS=OFF.
  void set_decision_watch(AsId watched, DecisionHistory* history);

  /// Record infection edges (adopt/cure/blocked; see obs/provenance.hpp)
  /// into `recorder` during subsequent announce() calls; nullptr stops
  /// recording. Recording never changes routing decisions — traced and
  /// untraced runs converge bit-identically.
  void set_provenance(obs::ProvenanceRecorder* recorder) { prov_ = recorder; }

 private:
  struct RibEntry {
    Origin origin = Origin::None;
    RouteClass cls = RouteClass::None;
    std::uint16_t len = 0;
  };

  bool deliver(AsId from, AsId to, std::uint32_t to_slot, const RibEntry& entry,
               const std::vector<AsId>& path, const ValidatorSet* validators);
  /// Clear the Adj-RIB-In entry at rib_idx; reselect when it was the
  /// receiver's selected route. Returns true when the selection changed.
  bool withdraw(AsId to, std::uint32_t rib_idx);
  void reselect(AsId v);
  void snapshot_watch(std::uint32_t generation);
  /// Provenance hook: emit an adopt/cure edge when `now` differs materially
  /// from `before` and either side is Attacker-origin. No-op when unarmed.
  void record_provenance(AsId to, const Route& now, const Route& before);

  const AsGraph& graph_;
  PolicyConfig config_;

  // AsGraph::reverse_slots(): for u's k-th neighbor v, mirror_[edge_offset(u)
  // + k] is the slot of u inside v's neighbor list.
  std::vector<std::uint32_t> mirror_;

  // Adj-RIB-In, one entry per directed edge (indexed edge_offset(v) + slot).
  std::vector<RibEntry> rib_;
  std::vector<std::vector<AsId>> rib_path_;

  // Selected route per AS. best_slot_ is the Adj-RIB-In slot of the selected
  // route, or kSelfSlot for a self-originated one.
  static constexpr std::uint32_t kSelfSlot = 0xffffffffu;
  std::vector<Route> best_;
  std::vector<std::uint32_t> best_slot_;
  std::vector<std::vector<AsId>> best_path_;

  std::vector<std::uint8_t> offered_bogus_;

  // Scratch for the propagation loop.
  std::vector<std::uint8_t> changed_flag_;
  std::vector<AsId> frontier_;
  std::vector<AsId> next_frontier_;
  std::vector<AsId> scratch_path_;

  // Validator rejections during the current announce(); flushed to the
  // defense.validator_drops counter when it returns.
  std::uint64_t validator_drop_count_ = 0;

  // Pollution provenance (see set_provenance / obs/provenance.hpp).
  obs::ProvenanceRecorder* prov_ = nullptr;
  std::uint32_t current_generation_ = 0;  ///< for edge records; 0 = origination

  // Decision introspection (see set_decision_watch / bgp/introspect.hpp).
  DecisionHistory* watch_history_ = nullptr;
  AsId watch_as_ = kInvalidAs;
  std::uint32_t watch_round_ = 0;  ///< announce() calls since watching began
};

}  // namespace bgpsim
