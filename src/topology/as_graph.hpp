// Immutable AS-level topology in compressed sparse row form.
//
// The graph is produced by GraphBuilder (hand-built or CAIDA-parsed) or by
// the synthetic generator. Nodes are dense AsId indices; the external AS
// number, address-space weight (/24 equivalents) and region label ride along
// as per-node attributes.
//
// The graph also owns the facts derived from its CSR arrays (degree order,
// stub flags, edge index): computed once when GraphBuilder::build() finishes
// or a snapshot is decoded, immutable afterwards, never serialized.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "topology/relationship.hpp"

namespace bgpsim {

class GraphBuilder;

namespace store {
class SnapshotCodec;
}  // namespace store

class AsGraph {
 public:
  AsGraph() = default;

  std::uint32_t num_ases() const { return static_cast<std::uint32_t>(asn_.size()); }

  /// Number of undirected links.
  std::uint64_t num_links() const { return adj_.size() / 2; }

  /// Neighbors of `as_id`, sorted by neighbor index.
  std::span<const Neighbor> neighbors(AsId as_id) const {
    return {adj_.data() + offsets_[as_id], adj_.data() + offsets_[as_id + 1]};
  }

  std::uint32_t degree(AsId as_id) const {
    return offsets_[as_id + 1] - offsets_[as_id];
  }

  /// Every AS by descending degree, ties by ascending AsId. Degree-ranked
  /// cores, probe sets and deployments are prefixes of it.
  std::span<const AsId> degree_order() const { return degree_order_; }

  /// True when the AS has no customers.
  bool is_stub(AsId as_id) const { return stub_[as_id] != 0; }

  /// Index of `as_id`'s first directed edge: the edge to its k-th neighbor
  /// is edge_offset(as_id) + k. Per-edge engine arrays (Adj-RIB-In, link
  /// delays) of size num_directed_edges() are indexed this way.
  std::uint32_t edge_offset(AsId as_id) const { return offsets_[as_id]; }

  std::uint32_t num_directed_edges() const {
    return static_cast<std::uint32_t>(adj_.size());
  }

  /// Reverse-slot index: for u's k-th neighbor v, entry edge_offset(u) + k
  /// is the position of u inside neighbors(v), so a message-passing engine
  /// finds the receiver's Adj-RIB-In slot in O(1). O(E) per call.
  std::vector<std::uint32_t> reverse_slots() const;

  /// External AS number of a node.
  Asn asn(AsId as_id) const { return asn_[as_id]; }

  /// Dense index for an external AS number, if present.
  std::optional<AsId> find(Asn asn) const;

  /// Dense index for an external AS number; throws PreconditionError if absent.
  AsId require(Asn asn) const;

  /// Whether a-b are linked, and with which relationship from a's viewpoint.
  std::optional<Rel> relationship(AsId a, AsId b) const;

  /// Address space owned by the AS, in /24-equivalents.
  std::uint64_t address_space(AsId as_id) const { return addr_space_[as_id]; }

  std::uint64_t total_address_space() const { return total_addr_space_; }

  /// Region label of a node (0 = "global" default region).
  std::uint16_t region(AsId as_id) const { return region_[as_id]; }

  std::string_view region_name(std::uint16_t region_id) const {
    return region_names_[region_id];
  }

  std::uint16_t num_regions() const {
    return static_cast<std::uint16_t>(region_names_.size());
  }

  /// All nodes whose region equals `region_id`.
  std::vector<AsId> ases_in_region(std::uint16_t region_id) const;

  /// Estimated heap footprint of the topology (vector capacities plus a
  /// bucket+node estimate for the ASN index). Feeds the
  /// `mem.topology_bytes_est` gauge in run reports.
  std::uint64_t memory_bytes() const;

 private:
  friend class GraphBuilder;
  // Binary snapshot serialization (src/store/snapshot.cpp) round-trips the
  // CSR arrays directly so a reloaded graph is field-identical — re-saving
  // a loaded snapshot reproduces the original bytes.
  friend class store::SnapshotCodec;

  /// Fill degree_order_ and stub_; both friends call it last.
  void derive_facts();

  std::vector<std::uint32_t> offsets_;  // size num_ases + 1
  std::vector<Neighbor> adj_;           // both directions of every link
  std::vector<Asn> asn_;                // dense id -> external number
  std::unordered_map<Asn, AsId> index_; // external number -> dense id
  std::vector<std::uint64_t> addr_space_;
  std::uint64_t total_addr_space_ = 0;
  std::vector<std::uint16_t> region_;
  std::vector<std::string> region_names_;
  std::vector<AsId> degree_order_;      // derived: see degree_order()
  std::vector<std::uint8_t> stub_;      // derived: 1 = no customers
};

}  // namespace bgpsim
