// Topological metrics from the paper: tier classification, *depth*
// (hops to the nearest tier-1 — or tier-1/tier-2 after Section IV's
// redefinition), transit/stub classification, customer cones and *reach*.
#pragma once

#include <cstdint>
#include <vector>

#include "topology/as_graph.hpp"

namespace bgpsim {

/// Depth assigned to ASes that cannot reach any root via provider chains.
inline constexpr std::uint16_t kUnreachableDepth = 0xffff;

struct TierClassification {
  std::vector<AsId> tier1;
  std::vector<AsId> tier2;
  std::vector<std::uint8_t> is_tier1;  ///< indexed by AsId
  std::vector<std::uint8_t> is_tier2;  ///< indexed by AsId
};

/// Identify the tier-1 clique and large tier-2 providers.
///
/// Tier-1: provider-free ASes, greedily restricted to a mutually-peering
/// clique seeded from the highest-degree candidate (matches how the 17-member
/// clique is recognized in CAIDA-derived data). Tier-2: transit ASes that are
/// direct customers of a tier-1 and have degree >= `tier2_min_degree`.
TierClassification classify_tiers(const AsGraph& graph,
                                  std::uint32_t tier2_min_degree);

/// Per-AS flag: has at least one customer (i.e. is a transit provider);
/// the complement of AsGraph::is_stub.
std::vector<std::uint8_t> transit_flags(const AsGraph& graph);

/// All transit ASes (ascending AsId).
std::vector<AsId> transit_ases(const AsGraph& graph);

/// Depth of every AS: BFS hop count from `roots` along provider->customer
/// links (an AS's depth = 1 + min depth among its providers; roots get 0).
std::vector<std::uint16_t> compute_depth(const AsGraph& graph,
                                         const std::vector<AsId>& roots);

/// Paper Section IV depth: hops to the nearest tier-1 *or tier-2* provider.
std::vector<std::uint16_t> compute_depth(const AsGraph& graph,
                                         const TierClassification& tiers,
                                         bool include_tier2 = true);

/// Number of ASes in the customer cone of `as_id` (the AS itself included).
std::uint64_t customer_cone_size(const AsGraph& graph, AsId as_id);

/// Paper metric "reach": ASes reachable from `as_id` along valley-free paths
/// that use no peer link (up provider links, then down customer links).
std::uint64_t reach(const AsGraph& graph, AsId as_id);

std::vector<std::uint32_t> degrees(const AsGraph& graph);

/// ASes with degree >= `min_degree` (descending degree, ties by AsId): a
/// prefix of AsGraph::degree_order().
std::vector<AsId> ases_with_degree_at_least(const AsGraph& graph,
                                            std::uint32_t min_degree);

/// The k highest-degree ASes (descending degree, ties by AsId): a prefix of
/// AsGraph::degree_order().
std::vector<AsId> top_k_by_degree(const AsGraph& graph, std::size_t k);

/// True when the AS has no customers (AsGraph::is_stub).
bool is_stub(const AsGraph& graph, AsId as_id);

/// True when the AS has at least `n` providers.
bool is_multi_homed(const AsGraph& graph, AsId as_id, std::uint32_t n = 2);

/// Deterministic 64-bit fingerprint of a topology: ASNs, adjacency,
/// relationship classes, and address-space weights all feed an FNV-1a fold,
/// so any change to the simulated graph — generator tweak, parser fix,
/// different scale — produces a different value. Run reports carry it so
/// bgpsim-perfdiff can refuse to compare runs of different topologies.
std::uint64_t topology_checksum(const AsGraph& graph);

}  // namespace bgpsim
