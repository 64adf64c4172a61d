// Differential test for the topology facts AsGraph derives from its CSR
// arrays (degree order, stub flags, reverse-slot index). Each fact is
// checked against the straightforward reference it replaced: a full
// std::sort by (degree desc, AsId asc), a customer scan per AS, and a
// binary search per directed edge. Runs over the audit matrix (seeds
// 101/202/303 x 1000/1500/2000 ASes) and through a snapshot round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "store/snapshot.hpp"
#include "topology/graph_builder.hpp"
#include "topology/internet_gen.hpp"
#include "topology/metrics.hpp"

namespace bgpsim {
namespace {

std::vector<AsId> ref_sorted_by_degree(const AsGraph& graph,
                                       std::vector<AsId> ases) {
  std::sort(ases.begin(), ases.end(), [&graph](AsId a, AsId b) {
    const auto da = graph.degree(a), db = graph.degree(b);
    return da != db ? da > db : a < b;
  });
  return ases;
}

std::vector<AsId> ref_all_by_degree(const AsGraph& graph) {
  std::vector<AsId> all(graph.num_ases());
  for (AsId v = 0; v < graph.num_ases(); ++v) all[v] = v;
  return ref_sorted_by_degree(graph, std::move(all));
}

bool ref_has_rel(const AsGraph& graph, AsId v, Rel rel) {
  for (const auto& nbr : graph.neighbors(v)) {
    if (nbr.rel == rel) return true;
  }
  return false;
}

TierClassification ref_classify_tiers(const AsGraph& graph,
                                      std::uint32_t tier2_min_degree) {
  const std::uint32_t n = graph.num_ases();
  TierClassification tiers;
  tiers.is_tier1.assign(n, 0);
  tiers.is_tier2.assign(n, 0);
  std::vector<AsId> candidates;
  for (AsId v = 0; v < n; ++v) {
    if (!ref_has_rel(graph, v, Rel::Provider)) candidates.push_back(v);
  }
  for (const AsId cand : ref_sorted_by_degree(graph, candidates)) {
    bool peers_with_all = true;
    for (const AsId member : tiers.tier1) {
      const auto rel = graph.relationship(cand, member);
      peers_with_all &= rel.has_value() && *rel == Rel::Peer;
    }
    if (peers_with_all) {
      tiers.tier1.push_back(cand);
      tiers.is_tier1[cand] = 1;
    }
  }
  std::sort(tiers.tier1.begin(), tiers.tier1.end());
  for (const AsId t1 : tiers.tier1) {
    for (const auto& nbr : graph.neighbors(t1)) {
      const AsId v = nbr.id;
      if (nbr.rel != Rel::Customer || tiers.is_tier1[v] || tiers.is_tier2[v]) {
        continue;
      }
      if (ref_has_rel(graph, v, Rel::Customer) &&
          graph.degree(v) >= tier2_min_degree) {
        tiers.is_tier2[v] = 1;
        tiers.tier2.push_back(v);
      }
    }
  }
  std::sort(tiers.tier2.begin(), tiers.tier2.end());
  return tiers;
}

std::vector<std::uint32_t> ref_reverse_slots(const AsGraph& graph) {
  std::vector<std::uint32_t> slots;
  for (AsId u = 0; u < graph.num_ases(); ++u) {
    for (const auto& nbr : graph.neighbors(u)) {
      const auto back = graph.neighbors(nbr.id);
      const auto it = std::lower_bound(
          back.begin(), back.end(), u,
          [](const Neighbor& nb, AsId id) { return nb.id < id; });
      slots.push_back(static_cast<std::uint32_t>(it - back.begin()));
    }
  }
  return slots;
}

/// Every derived fact of `a` and `b` is identical.
void expect_same_facts(const AsGraph& a, const AsGraph& b) {
  ASSERT_EQ(a.num_ases(), b.num_ases());
  EXPECT_TRUE(std::ranges::equal(a.degree_order(), b.degree_order()));
  for (AsId v = 0; v < a.num_ases(); ++v) {
    EXPECT_EQ(a.is_stub(v), b.is_stub(v)) << "AS index " << v;
    EXPECT_EQ(a.edge_offset(v), b.edge_offset(v)) << "AS index " << v;
  }
  EXPECT_EQ(a.reverse_slots(), b.reverse_slots());
}

struct AuditCase {
  std::uint64_t seed;
  std::uint32_t ases;
};

class DerivedFacts : public ::testing::TestWithParam<AuditCase> {
 protected:
  void SetUp() override {
    InternetGenParams params;
    params.total_ases = GetParam().ases;
    params.seed = GetParam().seed;
    graph_ = generate_internet(params);
  }

  AsGraph graph_;
};

TEST_P(DerivedFacts, DegreeRankingsMatchFullSort) {
  const AsGraph& g = graph_;
  const std::uint32_t n = g.num_ases();
  const std::vector<AsId> reference = ref_all_by_degree(g);
  EXPECT_TRUE(std::ranges::equal(g.degree_order(), reference));

  for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{17},
                              std::size_t{100}, std::size_t{n - 1},
                              std::size_t{n}, std::size_t{n + 5}}) {
    SCOPED_TRACE("k=" + std::to_string(k));
    const std::vector<AsId> expected(
        reference.begin(), reference.begin() + std::min<std::size_t>(k, n));
    EXPECT_EQ(top_k_by_degree(g, k), expected);
  }

  const std::uint32_t max_degree = g.degree(reference.front());
  std::vector<std::uint32_t> thresholds = {0, 1, 2, 3, 5, 10, 20, 50,
                                           max_degree, max_degree + 1};
  // The paper's degree >= 500/300/200/100 cores, scaled to this graph.
  for (const std::uint32_t full : {500u, 300u, 200u, 100u}) {
    thresholds.push_back(scale_degree_threshold(n, full));
  }
  for (const std::uint32_t min_degree : thresholds) {
    SCOPED_TRACE("min_degree=" + std::to_string(min_degree));
    std::vector<AsId> members;
    for (AsId v = 0; v < n; ++v) {
      if (g.degree(v) >= min_degree) members.push_back(v);
    }
    EXPECT_EQ(ases_with_degree_at_least(g, min_degree),
              ref_sorted_by_degree(g, members));
  }

  for (const std::uint32_t full : {120u, 60u, 0u}) {
    const std::uint32_t tier2_min = scale_degree_threshold(n, full);
    SCOPED_TRACE("tier2_min_degree=" + std::to_string(tier2_min));
    const TierClassification got = classify_tiers(g, tier2_min);
    const TierClassification want = ref_classify_tiers(g, tier2_min);
    EXPECT_EQ(got.tier1, want.tier1);
    EXPECT_EQ(got.tier2, want.tier2);
    EXPECT_EQ(got.is_tier1, want.is_tier1);
    EXPECT_EQ(got.is_tier2, want.is_tier2);
  }
}

TEST_P(DerivedFacts, StubFlagsMatchCustomerScan) {
  const AsGraph& g = graph_;
  const std::vector<std::uint8_t> transit = transit_flags(g);
  ASSERT_EQ(transit.size(), g.num_ases());
  std::uint32_t stubs = 0;
  for (AsId v = 0; v < g.num_ases(); ++v) {
    const bool reference = !ref_has_rel(g, v, Rel::Customer);
    EXPECT_EQ(g.is_stub(v), reference) << "AS index " << v;
    EXPECT_EQ(is_stub(g, v), reference) << "AS index " << v;
    EXPECT_EQ(transit[v], reference ? 0 : 1) << "AS index " << v;
    stubs += reference ? 1 : 0;
  }
  // Both populations are present, so the comparison above covers both values.
  EXPECT_GT(stubs, 0u);
  EXPECT_LT(stubs, g.num_ases());
}

TEST_P(DerivedFacts, EdgeIndexMatchesBinarySearch) {
  const AsGraph& g = graph_;
  EXPECT_EQ(g.num_directed_edges(), 2 * g.num_links());
  std::uint32_t expected_offset = 0;
  for (AsId v = 0; v < g.num_ases(); ++v) {
    EXPECT_EQ(g.edge_offset(v), expected_offset);
    expected_offset += g.degree(v);
  }
  EXPECT_EQ(g.reverse_slots(), ref_reverse_slots(g));
}

TEST_P(DerivedFacts, SurviveSnapshotRoundTripAndRebuild) {
  store::Snapshot snapshot;
  snapshot.graph = graph_;
  snapshot.params.seed = GetParam().seed;
  snapshot.params.scale = GetParam().ases;
  const std::string bytes = store::encode_snapshot(snapshot);
  const store::Snapshot loaded = store::decode_snapshot(bytes);
  expect_same_facts(graph_, loaded.graph);
  // The facts are not serialized: saving the loaded graph again gives the
  // same bytes.
  EXPECT_EQ(store::encode_snapshot(loaded), bytes);

  expect_same_facts(graph_, GraphBuilder::from(graph_).build());
}

INSTANTIATE_TEST_SUITE_P(
    AuditMatrix, DerivedFacts,
    ::testing::Values(AuditCase{101, 1000}, AuditCase{101, 1500},
                      AuditCase{101, 2000}, AuditCase{202, 1000},
                      AuditCase{202, 1500}, AuditCase{202, 2000},
                      AuditCase{303, 1000}, AuditCase{303, 1500},
                      AuditCase{303, 2000}),
    [](const ::testing::TestParamInfo<AuditCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.ases);
    });

TEST(DerivedFactsEdgeCases, EmptyAndIsolatedGraphs) {
  const AsGraph empty = GraphBuilder().build();
  EXPECT_TRUE(empty.degree_order().empty());
  EXPECT_TRUE(empty.reverse_slots().empty());
  EXPECT_TRUE(top_k_by_degree(empty, 3).empty());

  GraphBuilder builder;
  builder.ensure_as(7);
  builder.ensure_as(5);
  builder.add_provider_customer(9, 5);
  const AsGraph g = builder.build();  // ids: 7 -> 0, 5 -> 1, 9 -> 2
  EXPECT_EQ(top_k_by_degree(g, 3), (std::vector<AsId>{1, 2, 0}));
  EXPECT_TRUE(g.is_stub(0));
  EXPECT_TRUE(g.is_stub(1));
  EXPECT_FALSE(g.is_stub(2));
  EXPECT_EQ(ases_with_degree_at_least(g, 1), (std::vector<AsId>{1, 2}));
}

}  // namespace
}  // namespace bgpsim
