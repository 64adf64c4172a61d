#include "topology/as_graph.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace bgpsim {

std::optional<AsId> AsGraph::find(Asn asn) const {
  const auto it = index_.find(asn);
  if (it == index_.end()) return std::nullopt;
  return it->second;
}

AsId AsGraph::require(Asn asn) const {
  const auto found = find(asn);
  BGPSIM_REQUIRE(found.has_value(), "unknown ASN " + std::to_string(asn));
  return *found;
}

std::optional<Rel> AsGraph::relationship(AsId a, AsId b) const {
  const auto nbrs = neighbors(a);
  const auto it = std::lower_bound(
      nbrs.begin(), nbrs.end(), b,
      [](const Neighbor& n, AsId id) { return n.id < id; });
  if (it == nbrs.end() || it->id != b) return std::nullopt;
  return it->rel;
}

std::uint64_t AsGraph::memory_bytes() const {
  auto vec_bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity()) * sizeof(v[0]);
  };
  std::uint64_t total = vec_bytes(offsets_) + vec_bytes(adj_) +
                        vec_bytes(asn_) + vec_bytes(addr_space_) +
                        vec_bytes(region_) + vec_bytes(region_names_) +
                        vec_bytes(degree_order_) + vec_bytes(stub_);
  for (const std::string& name : region_names_) {
    total += name.capacity();
  }
  // unordered_map estimate: one bucket pointer per bucket plus a node
  // (key, value, next pointer) per element — close enough for a gauge whose
  // job is catching footprint regressions, not malloc bookkeeping.
  total += index_.bucket_count() * sizeof(void*);
  total += index_.size() * (sizeof(Asn) + sizeof(AsId) + 2 * sizeof(void*));
  return total;
}

std::vector<std::uint32_t> AsGraph::reverse_slots() const {
  // Neighbor lists are sorted by id, so visiting every u in ascending order
  // meets the entries of each v's list in list order: u's position inside
  // neighbors(v) is just how many of v's neighbors came before it.
  std::vector<std::uint32_t> next(num_ases(), 0);
  std::vector<std::uint32_t> slots(adj_.size());
  for (AsId u = 0; u < num_ases(); ++u) {
    for (std::uint32_t e = offsets_[u]; e < offsets_[u + 1]; ++e) {
      const AsId v = adj_[e].id;
      const std::uint32_t slot = next[v]++;
      BGPSIM_ASSERT(slot < degree(v) && adj_[offsets_[v] + slot].id == u,
                    "asymmetric adjacency");
      slots[e] = slot;
    }
  }
  return slots;
}

void AsGraph::derive_facts() {
  const std::uint32_t n = num_ases();
  // Counting sort by degree: bucket d starts after every AS of higher
  // degree, and filling in ascending AsId keeps ties in id order.
  std::uint32_t max_degree = 0;
  for (AsId v = 0; v < n; ++v) max_degree = std::max(max_degree, degree(v));
  std::vector<std::uint32_t> next(static_cast<std::size_t>(max_degree) + 2, 0);
  for (AsId v = 0; v < n; ++v) ++next[max_degree - degree(v) + 1];
  for (std::uint32_t b = 1; b < next.size(); ++b) next[b] += next[b - 1];
  degree_order_.resize(n);
  for (AsId v = 0; v < n; ++v) degree_order_[next[max_degree - degree(v)]++] = v;

  const auto is_customer = [](const Neighbor& nbr) { return nbr.rel == Rel::Customer; };
  stub_.resize(n);
  for (AsId v = 0; v < n; ++v) {
    stub_[v] = std::ranges::none_of(neighbors(v), is_customer) ? 1 : 0;
  }
}

std::vector<AsId> AsGraph::ases_in_region(std::uint16_t region_id) const {
  std::vector<AsId> out;
  for (AsId v = 0; v < num_ases(); ++v) {
    if (region_[v] == region_id) out.push_back(v);
  }
  return out;
}

}  // namespace bgpsim
