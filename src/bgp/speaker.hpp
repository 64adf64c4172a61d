// The per-AS BGP decision process of the paper's simulator (§III), held for
// every AS of a topology at once: per-neighbor Adj-RIB-In, LOCAL_PREF
// selection, valley-free export, loop rejection and treat-as-withdraw.
//
// Both message-passing engines run this one speaker and differ only in *when*
// a message reaches it: GenerationEngine delivers in lock-step generations,
// EventEngine after per-link delays. Because the decision process is shared
// (and displaces() makes per-AS preferences a strict total order), both reach
// the unique stable state EquilibriumEngine computes directly.
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

class Speaker {
 public:
  /// One Adj-RIB-In entry: what a neighbor last announced on this edge.
  struct RibEntry {
    Origin origin = Origin::None;
    RouteClass cls = RouteClass::None;
    std::uint16_t len = 0;
  };

  /// What an AS's selected route means for one of its neighbors.
  enum class Export : std::uint8_t {
    Silent,    ///< nothing to offer: no route, a valley, or split horizon
    Filtered,  ///< §IV first-hop filter: the provider hears it, then drops it
    Announce,  ///< send the selected route
  };

  /// best-slot value of a self-originated (or absent) route.
  static constexpr std::uint32_t kSelfSlot = 0xffffffffu;

  /// The graph must be sibling-free (see contract_siblings).
  Speaker(const AsGraph& graph, PolicyConfig config);

  /// Forget all routing state (start a new prefix).
  void reset();

  /// Select a self-originated route at `origin`: path [origin], or
  /// [origin, forged_tail] when forged_tail is valid. A self route always
  /// wins locally (the attacker overrides any legitimate route it holds).
  void originate(AsId origin, Origin tag, AsId forged_tail = kInvalidAs);

  /// Export decision of v's selected route towards `nbr` (one of v's
  /// neighbors): valley-free, split horizon, then the stub first-hop filter.
  Export export_decision(AsId v, const Neighbor& nbr) const;

  /// The Adj-RIB-In entry v's selected route becomes at `nbr`.
  RibEntry offer(AsId v, const Neighbor& nbr) const {
    return RibEntry{best_[v].origin, route_class_from(inverse(nbr.rel)),
                    static_cast<std::uint16_t>(best_[v].path_len + 1)};
  }

  /// A message `from` sent under export decision `kind` reaches `to` (from
  /// sits at `to_slot` in to's adjacency):
  ///   * Announce: `entry` over `path`. A validator or loop rejection
  ///     withdraws whatever `from` announced before (RFC 7606
  ///     treat-as-withdraw).
  ///   * Filtered: heard (offered_bogus), dropped, and it still replaces
  ///     from's earlier route.
  ///   * Silent: an explicit WITHDRAW.
  /// Returns true when to's selection changed.
  bool receive(Export kind, AsId from, AsId to, std::uint32_t to_slot,
               const RibEntry& entry, const std::vector<AsId>& path,
               const ValidatorSet* validators);

  const PolicyConfig& config() const { return config_; }

  /// For u's k-th neighbor v, mirror(edge_offset(u) + k) is u's slot in v's
  /// adjacency (AsGraph::reverse_slots()).
  std::uint32_t mirror(std::uint32_t edge) const { return mirror_[edge]; }

  const Route& route(AsId v) const { return best_[v]; }
  const std::vector<AsId>& path_of(AsId v) const { return best_path_[v]; }
  /// Adj-RIB-In index of v's selected route, or kSelfSlot.
  std::uint32_t selected_slot(AsId v) const { return best_slot_[v]; }
  const RibEntry& rib(std::uint32_t rib_idx) const { return rib_[rib_idx]; }
  const std::vector<AsId>& rib_path(std::uint32_t rib_idx) const {
    return rib_path_[rib_idx];
  }
  bool offered_bogus(AsId v) const { return offered_bogus_[v] != 0; }

  void export_routes(RouteTable& out) const { out.routes = best_; }
  std::uint32_t count_origin(Origin origin) const;

  /// Validator rejections since the last call; the engines flush them to the
  /// defense.validator_drops counter once per announce().
  std::uint64_t take_validator_drops();

  /// Infection edges (obs/provenance.hpp) go to `recorder`, stamped with the
  /// current generation (0 = origination, or an engine without generations).
  void set_provenance(obs::ProvenanceRecorder* recorder) { prov_ = recorder; }
  void set_generation(std::uint32_t generation) { generation_ = generation; }

 private:
  bool deliver(AsId from, AsId to, std::uint32_t rib_idx, const RibEntry& entry,
               const std::vector<AsId>& path, const ValidatorSet* validators);
  /// Clear the Adj-RIB-In entry at rib_idx; reselect when it was the
  /// receiver's selected route. Returns true when the selection changed.
  bool withdraw(AsId to, std::uint32_t rib_idx);
  void reselect(AsId v);
  /// Emit an adopt/cure edge when `now` differs materially from `before` and
  /// either side is Attacker-origin. No-op when unarmed.
  void record_provenance(AsId to, const Route& now, const Route& before);

  const AsGraph& graph_;
  PolicyConfig config_;

  std::vector<std::uint32_t> mirror_;

  // Adj-RIB-In, one entry per directed edge (indexed edge_offset(v) + slot).
  std::vector<RibEntry> rib_;
  std::vector<std::vector<AsId>> rib_path_;

  // Selected route per AS; best_slot_ is its Adj-RIB-In index or kSelfSlot.
  std::vector<Route> best_;
  std::vector<std::uint32_t> best_slot_;
  std::vector<std::vector<AsId>> best_path_;

  std::vector<std::uint8_t> offered_bogus_;
  std::uint64_t validator_drops_ = 0;

  obs::ProvenanceRecorder* prov_ = nullptr;
  std::uint32_t generation_ = 0;
};

// Called once per neighbor of every announcing AS, so defined here where the
// schedulers' loops can inline them.
inline Speaker::Export Speaker::export_decision(AsId v, const Neighbor& nbr) const {
  const Route& route = best_[v];
  // Valley-free export plus split horizon (no route back through the next
  // hop itself).
  if (!route.valid() || !exports_to(route.cls, nbr.rel) || nbr.id == route.via) {
    return Export::Silent;
  }
  // Optimistic first-hop defense (fig. 4): a provider knows its *stub*
  // customers' prefixes and drops a bogus origination arriving directly
  // from one (transit customers legitimately re-announce third-party
  // prefixes, so they cannot be filtered this way).
  if (config_.stub_first_hop_filter && route.cls == RouteClass::Self &&
      route.origin == Origin::Attacker && nbr.rel == Rel::Provider &&
      graph_.is_stub(v)) {
    return Export::Filtered;
  }
  return Export::Announce;
}

inline bool Speaker::receive(Export kind, AsId from, AsId to,
                             std::uint32_t to_slot, const RibEntry& entry,
                             const std::vector<AsId>& path,
                             const ValidatorSet* validators) {
  const std::uint32_t rib_idx = graph_.edge_offset(to) + to_slot;
  switch (kind) {
    case Export::Silent:
      return withdraw(to, rib_idx);
    case Export::Filtered:
      offered_bogus_[to] = 1;
      return withdraw(to, rib_idx);
    case Export::Announce:
      break;
  }
  return deliver(from, to, rib_idx, entry, path, validators);
}

inline bool Speaker::withdraw(AsId to, std::uint32_t rib_idx) {
  if (rib_[rib_idx].cls == RouteClass::None) return false;
  rib_[rib_idx] = RibEntry{};
  rib_path_[rib_idx].clear();
  if (best_slot_[to] == rib_idx) {
    reselect(to);
    return true;
  }
  return false;
}

}  // namespace bgpsim
