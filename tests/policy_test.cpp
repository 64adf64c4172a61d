// Exhaustive unit tests of the routing-policy primitives.
#include "bgp/policy.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "topology/graph_builder.hpp"

namespace bgpsim {
namespace {

TEST(Policy, LocalPrefOrdering) {
  EXPECT_GT(local_pref(RouteClass::Self), local_pref(RouteClass::Customer));
  EXPECT_GT(local_pref(RouteClass::Customer), local_pref(RouteClass::Peer));
  EXPECT_GT(local_pref(RouteClass::Peer), local_pref(RouteClass::Provider));
  EXPECT_GT(local_pref(RouteClass::Provider), local_pref(RouteClass::None));
}

// displaces() between two legitimate routes: the class and length rules
// without the origin tie-break.
constexpr bool legit_displaces(RouteClass inc_cls, std::uint16_t inc_len,
                               RouteClass cand_cls, std::uint16_t cand_len,
                               bool is_tier1, bool tier1_shortest_path) {
  return displaces(Origin::Legit, inc_cls, inc_len, Origin::Legit, cand_cls,
                   cand_len, is_tier1, tier1_shortest_path);
}

TEST(Policy, DisplacesPrefersHigherClass) {
  // Customer route beats peer/provider routes regardless of length.
  EXPECT_TRUE(legit_displaces(RouteClass::Peer, 2, RouteClass::Customer, 9, false, true));
  EXPECT_TRUE(
      legit_displaces(RouteClass::Provider, 2, RouteClass::Customer, 9, false, true));
  EXPECT_FALSE(
      legit_displaces(RouteClass::Customer, 9, RouteClass::Peer, 2, false, true));
}

TEST(Policy, DisplacesNeedsStrictlyShorterOnEqualClass) {
  // Paper: "a new announcement is accepted only if it has a shorter path".
  EXPECT_TRUE(legit_displaces(RouteClass::Peer, 5, RouteClass::Peer, 4, false, true));
  EXPECT_FALSE(legit_displaces(RouteClass::Peer, 5, RouteClass::Peer, 6, false, true));
  // A full tie between equal origins keeps the incumbent...
  EXPECT_FALSE(legit_displaces(RouteClass::Peer, 5, RouteClass::Peer, 5, false, true));
  // ...but the legitimate origin wins an equal-rank tie against the attacker,
  // whichever arrived first.
  EXPECT_TRUE(displaces(Origin::Attacker, RouteClass::Peer, 5, Origin::Legit,
                        RouteClass::Peer, 5, false, true));
  EXPECT_FALSE(displaces(Origin::Legit, RouteClass::Peer, 5, Origin::Attacker,
                         RouteClass::Peer, 5, false, true));
}

TEST(Policy, EmptyIncumbentAlwaysLoses) {
  EXPECT_TRUE(legit_displaces(RouteClass::None, 0, RouteClass::Provider, 99, false, true));
  EXPECT_FALSE(legit_displaces(RouteClass::None, 0, RouteClass::None, 0, false, true));
}

TEST(Policy, SelfRouteIsSticky) {
  EXPECT_FALSE(legit_displaces(RouteClass::Self, 1, RouteClass::Customer, 1, false, true));
  EXPECT_TRUE(legit_displaces(RouteClass::Provider, 3, RouteClass::Self, 1, false, true));
  // The attacker's own origination is never displaced by the legitimate route.
  EXPECT_FALSE(displaces(Origin::Attacker, RouteClass::Self, 1, Origin::Legit,
                         RouteClass::Customer, 1, false, true));
}

TEST(Policy, Tier1ComparesLengthFirst) {
  // A tier-1 swaps its customer route for a shorter peer route...
  EXPECT_TRUE(legit_displaces(RouteClass::Customer, 4, RouteClass::Peer, 3, true, true));
  // ...but not when the quirk is disabled...
  EXPECT_FALSE(legit_displaces(RouteClass::Customer, 4, RouteClass::Peer, 3, true, false));
  // ...and not at a non-tier-1 AS.
  EXPECT_FALSE(legit_displaces(RouteClass::Customer, 4, RouteClass::Peer, 3, false, true));
  // At equal length a tier-1 falls back to LOCAL_PREF.
  EXPECT_FALSE(legit_displaces(RouteClass::Customer, 3, RouteClass::Peer, 3, true, true));
  EXPECT_TRUE(legit_displaces(RouteClass::Peer, 3, RouteClass::Customer, 3, true, true));
}

TEST(Policy, RankBetterTotalOrder) {
  // rank_better is used for Adj-RIB-In re-selection; check the class order
  // and the tier-1 variant.
  EXPECT_TRUE(rank_better(RouteClass::Customer, 9, RouteClass::Peer, 2, false, true));
  EXPECT_TRUE(rank_better(RouteClass::Peer, 2, RouteClass::Peer, 3, false, true));
  EXPECT_FALSE(rank_better(RouteClass::Peer, 3, RouteClass::Peer, 3, false, true));
  EXPECT_TRUE(rank_better(RouteClass::Peer, 2, RouteClass::Customer, 3, true, true));
  EXPECT_FALSE(rank_better(RouteClass::None, 0, RouteClass::Provider, 9, false, true));
  EXPECT_TRUE(rank_better(RouteClass::Provider, 9, RouteClass::None, 0, false, true));
}

TEST(Policy, ExportFollowsValleyFreeRules) {
  // To a customer: everything.
  for (const RouteClass cls : {RouteClass::Self, RouteClass::Customer,
                               RouteClass::Peer, RouteClass::Provider}) {
    EXPECT_TRUE(exports_to(cls, Rel::Customer));
  }
  // To peers/providers: only self-originated or customer-learned routes.
  for (const Rel to : {Rel::Peer, Rel::Provider}) {
    EXPECT_TRUE(exports_to(RouteClass::Self, to));
    EXPECT_TRUE(exports_to(RouteClass::Customer, to));
    EXPECT_FALSE(exports_to(RouteClass::Peer, to));
    EXPECT_FALSE(exports_to(RouteClass::Provider, to));
  }
}

TEST(Policy, ValidateRejectsSiblingGraphs) {
  GraphBuilder b;
  b.add_sibling(1, 2);
  const AsGraph g = b.build();
  PolicyConfig cfg;
  EXPECT_THROW(validate_engine_inputs(g, cfg), ConfigError);
}

TEST(Policy, ValidateRejectsMismatchedTier1Vector) {
  GraphBuilder b;
  b.add_peer(1, 2);
  const AsGraph g = b.build();
  PolicyConfig cfg;
  cfg.is_tier1.assign(5, 0);  // wrong size
  EXPECT_THROW(validate_engine_inputs(g, cfg), ConfigError);
  cfg.is_tier1.assign(2, 0);
  EXPECT_NO_THROW(validate_engine_inputs(g, cfg));
}

TEST(Policy, RouteClassFromRelationship) {
  EXPECT_EQ(route_class_from(Rel::Customer), RouteClass::Customer);
  EXPECT_EQ(route_class_from(Rel::Peer), RouteClass::Peer);
  EXPECT_EQ(route_class_from(Rel::Provider), RouteClass::Provider);
}

}  // namespace
}  // namespace bgpsim
