#include "topology/graph_builder.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "support/error.hpp"

namespace bgpsim {

GraphBuilder GraphBuilder::from(const AsGraph& graph) {
  GraphBuilder builder;
  builder.nodes_.reserve(graph.num_ases());
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    const auto idx = builder.intern(graph.asn(v));
    builder.nodes_[idx].addr_space = graph.address_space(v);
  }
  // Preserve region names and assignments.
  builder.region_names_.clear();
  builder.region_index_.clear();
  for (std::uint16_t r = 0; r < graph.num_regions(); ++r) {
    builder.region_names_.emplace_back(graph.region_name(r));
    builder.region_index_.emplace(builder.region_names_.back(), r);
  }
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    builder.nodes_[v].region = graph.region(v);
  }
  for (AsId v = 0; v < graph.num_ases(); ++v) {
    for (const auto& nbr : graph.neighbors(v)) {
      if (nbr.id > v) builder.add_link(graph.asn(v), graph.asn(nbr.id), nbr.rel);
    }
  }
  return builder;
}

std::uint32_t GraphBuilder::intern(Asn asn) {
  const auto it = index_.find(asn);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(nodes_.size());
  nodes_.emplace_back(asn, 1, 0);
  index_.emplace(asn, id);
  return id;
}

void GraphBuilder::ensure_as(Asn asn) { intern(asn); }

void GraphBuilder::add_link(Asn a, Asn b, Rel rel_of_b_from_a) {
  if (a == b) throw ConfigError("self-link on AS " + std::to_string(a));
  const std::uint32_t ia = intern(a);
  const std::uint32_t ib = intern(b);
  const std::uint32_t lo = std::min(ia, ib);
  const std::uint32_t hi = std::max(ia, ib);
  // Normalize the relationship to the lower endpoint's viewpoint.
  const Rel rel_lo = (ia == lo) ? rel_of_b_from_a : inverse(rel_of_b_from_a);
  const auto [it, inserted] = links_.emplace(link_key(lo, hi), rel_lo);
  if (!inserted && it->second != rel_lo) {
    throw ConfigError("conflicting relationship for link " + std::to_string(a) +
                      "—" + std::to_string(b));
  }
}

void GraphBuilder::add_provider_customer(Asn provider, Asn customer) {
  add_link(provider, customer, Rel::Customer);
}

void GraphBuilder::add_peer(Asn a, Asn b) { add_link(a, b, Rel::Peer); }

void GraphBuilder::add_sibling(Asn a, Asn b) { add_link(a, b, Rel::Sibling); }

void GraphBuilder::remove_link(Asn a, Asn b) {
  const auto ia = index_.find(a);
  const auto ib = index_.find(b);
  if (ia == index_.end() || ib == index_.end()) {
    throw ConfigError("remove_link: unknown AS");
  }
  const std::uint32_t lo = std::min(ia->second, ib->second);
  const std::uint32_t hi = std::max(ia->second, ib->second);
  if (links_.erase(link_key(lo, hi)) == 0) {
    throw ConfigError("remove_link: no link between " + std::to_string(a) + " and " +
                      std::to_string(b));
  }
}

bool GraphBuilder::has_link(Asn a, Asn b) const {
  const auto ia = index_.find(a);
  const auto ib = index_.find(b);
  if (ia == index_.end() || ib == index_.end()) return false;
  const std::uint32_t lo = std::min(ia->second, ib->second);
  const std::uint32_t hi = std::max(ia->second, ib->second);
  return links_.contains(link_key(lo, hi));
}

void GraphBuilder::set_address_space(Asn asn, std::uint64_t slash24_count) {
  nodes_[intern(asn)].addr_space = slash24_count;
}

void GraphBuilder::set_region(Asn asn, const std::string& region_name) {
  const auto idx = intern(asn);
  const auto it = region_index_.find(region_name);
  if (it != region_index_.end()) {
    nodes_[idx].region = it->second;
    return;
  }
  BGPSIM_REQUIRE(region_names_.size() < 0xffff, "too many regions");
  const auto region_id = static_cast<std::uint16_t>(region_names_.size());
  region_names_.push_back(region_name);
  region_index_.emplace(region_name, region_id);
  nodes_[idx].region = region_id;
}

AsGraph GraphBuilder::build() const {
  AsGraph graph;
  const auto n = static_cast<std::uint32_t>(nodes_.size());
  graph.asn_.resize(n);
  graph.addr_space_.resize(n);
  graph.region_.resize(n);
  graph.index_.reserve(n);
  graph.total_addr_space_ = 0;
  for (std::uint32_t v = 0; v < n; ++v) {
    graph.asn_[v] = nodes_[v].asn;
    graph.addr_space_[v] = nodes_[v].addr_space;
    graph.total_addr_space_ += nodes_[v].addr_space;
    graph.region_[v] = nodes_[v].region;
    graph.index_.emplace(nodes_[v].asn, v);
  }
  graph.region_names_ = region_names_;

  // Degree counting, then CSR fill.
  std::vector<std::uint32_t> degree(n, 0);
  for (const auto& [key, rel] : links_) {
    (void)rel;
    ++degree[static_cast<std::uint32_t>(key >> 32)];
    ++degree[static_cast<std::uint32_t>(key & 0xffffffffu)];
  }
  graph.offsets_.assign(n + 1, 0);
  for (std::uint32_t v = 0; v < n; ++v) graph.offsets_[v + 1] = graph.offsets_[v] + degree[v];
  graph.adj_.resize(graph.offsets_[n]);
  std::vector<std::uint32_t> cursor(graph.offsets_.begin(), graph.offsets_.end() - 1);
  for (const auto& [key, rel_lo] : links_) {
    const auto lo = static_cast<std::uint32_t>(key >> 32);
    const auto hi = static_cast<std::uint32_t>(key & 0xffffffffu);
    graph.adj_[cursor[lo]++] = Neighbor{hi, rel_lo};
    graph.adj_[cursor[hi]++] = Neighbor{lo, inverse(rel_lo)};
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    std::sort(graph.adj_.begin() + graph.offsets_[v],
              graph.adj_.begin() + graph.offsets_[v + 1],
              [](const Neighbor& a, const Neighbor& b) { return a.id < b.id; });
  }
  graph.derive_facts();
  return graph;
}

}  // namespace bgpsim
