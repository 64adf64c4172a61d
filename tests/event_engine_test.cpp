// Tests for the asynchronous discrete-event engine: hand-computed cases,
// end-state agreement with the synchronous engines, detection-latency
// semantics, and determinism.
#include "bgp/event_engine.hpp"

#include <gtest/gtest.h>

#include "bgp/equilibrium_engine.hpp"
#include "bgp/generation_engine.hpp"
#include "bgp/route_audit.hpp"
#include "core/scenario.hpp"
#include "support/error.hpp"
#include "topology/graph_builder.hpp"

namespace bgpsim {
namespace {

AsGraph diamond() {
  GraphBuilder b;
  b.add_provider_customer(1, 2);
  b.add_provider_customer(1, 3);
  b.add_provider_customer(2, 4);
  b.add_provider_customer(3, 4);
  return b.build();
}

EventEngineConfig config_for(const AsGraph& g) {
  EventEngineConfig cfg;
  cfg.policy.is_tier1.assign(g.num_ases(), 0);
  cfg.delay_seed = 7;
  return cfg;
}

TEST(EventEngine, DiamondEndStateMatchesPolicy) {
  const AsGraph g = diamond();
  EventEngine engine(g, config_for(g));
  const auto legit = engine.announce(g.require(4), Origin::Legit, 0.0);
  EXPECT_TRUE(legit.converged);
  EXPECT_GT(legit.messages_delivered, 0u);
  const auto bogus = engine.announce(g.require(3), Origin::Attacker,
                                     legit.quiescent_time + 1.0);
  EXPECT_TRUE(bogus.converged);

  // Same end state as the synchronous engines: only AS 1 polluted.
  EXPECT_EQ(engine.route(g.require(1)).origin, Origin::Attacker);
  EXPECT_EQ(engine.route(g.require(2)).origin, Origin::Legit);
  EXPECT_EQ(engine.route(g.require(4)).origin, Origin::Legit);
  EXPECT_EQ(engine.count_origin(Origin::Attacker), 2u);
}

TEST(EventEngine, FirstBogusTimesAreCausal) {
  const AsGraph g = diamond();
  EventEngine engine(g, config_for(g));
  engine.announce(g.require(4), Origin::Legit, 0.0);
  const double attack_time = 5.0;
  engine.announce(g.require(3), Origin::Attacker, attack_time);

  // The attacker switches at the attack instant; AS 1 strictly later, by at
  // least the 3->1 link delay.
  EXPECT_DOUBLE_EQ(engine.first_bogus_time(g.require(3)), attack_time);
  const double at_one = engine.first_bogus_time(g.require(1));
  EXPECT_GT(at_one, attack_time);
  EXPECT_LT(at_one, attack_time + 1.0);
  // Unpolluted ASes never saw it.
  EXPECT_LT(engine.first_bogus_time(g.require(2)), 0.0);
  EXPECT_LT(engine.first_bogus_time(g.require(4)), 0.0);
}

TEST(EventEngine, DeterministicAcrossRuns) {
  ScenarioParams params;
  params.topology.total_ases = 800;
  params.topology.seed = 13;
  const Scenario scenario = Scenario::generate(params);
  EventEngineConfig cfg;
  cfg.policy = scenario.policy();
  cfg.delay_seed = 3;

  const auto run = [&](RouteTable& out) {
    EventEngine engine(scenario.graph(), cfg);
    engine.announce(scenario.transit()[0], Origin::Legit, 0.0);
    const auto stats =
        engine.announce(scenario.transit()[5], Origin::Attacker, 10.0);
    engine.export_routes(out);
    return stats;
  };
  RouteTable a, b;
  const auto sa = run(a);
  const auto sb = run(b);
  EXPECT_EQ(sa.messages_delivered, sb.messages_delivered);
  EXPECT_DOUBLE_EQ(sa.quiescent_time, sb.quiescent_time);
  EXPECT_EQ(route_agreement(a, b), 1.0);
}

TEST(EventEngine, AgreesWithGenerationEngineOnEndState) {
  ScenarioParams params;
  params.topology.total_ases = 1200;
  params.topology.seed = 21;
  const Scenario scenario = Scenario::generate(params);
  const auto& transits = scenario.transit();

  GenerationEngine sync(scenario.graph(), scenario.policy());
  EquilibriumEngine equilibrium(scenario.graph(), scenario.policy());
  EventEngineConfig cfg;
  cfg.policy = scenario.policy();
  for (int trial = 0; trial < 3; ++trial) {
    cfg.delay_seed = 100 + trial;
    EventEngine async(scenario.graph(), cfg);
    const AsId target = transits[7 * (trial + 1)];
    const AsId attacker = transits[transits.size() - 3 * (trial + 1)];

    sync.reset();
    sync.announce(target, Origin::Legit);
    sync.announce(attacker, Origin::Attacker);
    RouteTable sync_table;
    sync.export_routes(sync_table);

    RouteTable eq_table;
    equilibrium.compute_hijack(target, attacker, nullptr, eq_table);

    ASSERT_TRUE(async.announce(target, Origin::Legit, 0.0).converged);
    ASSERT_TRUE(async.announce(attacker, Origin::Attacker, 1000.0).converged);
    RouteTable async_table;
    async.export_routes(async_table);

    // Asynchronous timing must not change the routing outcome at all: the
    // same (origin, class, path length) at every AS as the unique stable
    // state, whichever order messages arrived in.
    for (AsId v = 0; v < scenario.graph().num_ases(); ++v) {
      const Route& got = async_table.routes[v];
      const Route& want = eq_table.routes[v];
      ASSERT_TRUE(got.origin == want.origin && got.cls == want.cls &&
                  got.path_len == want.path_len)
          << "trial " << trial << ": AS " << v << " picked origin "
          << to_string(got.origin) << " len " << got.path_len << ", expected "
          << to_string(want.origin) << " len " << want.path_len;
    }
    EXPECT_EQ(route_agreement(sync_table, async_table), 1.0) << "trial " << trial;
  }
}

TEST(EventEngine, ValidatorsBlock) {
  const AsGraph g = diamond();
  EventEngine engine(g, config_for(g));
  ValidatorSet validators(g.num_ases(), 0);
  validators[g.require(1)] = 1;
  engine.announce(g.require(4), Origin::Legit, 0.0, &validators);
  engine.announce(g.require(3), Origin::Attacker, 10.0, &validators);
  EXPECT_EQ(engine.route(g.require(1)).origin, Origin::Legit);
  EXPECT_EQ(engine.count_origin(Origin::Attacker), 1u);
}

TEST(EventEngine, RejectsBadConfigAndArgs) {
  const AsGraph g = diamond();
  EventEngineConfig bad = config_for(g);
  bad.min_delay = 0.0;
  EXPECT_THROW(EventEngine(g, bad), PreconditionError);
  bad = config_for(g);
  bad.max_delay = bad.min_delay / 2;
  EXPECT_THROW(EventEngine(g, bad), PreconditionError);

  EventEngine engine(g, config_for(g));
  EXPECT_THROW(engine.announce(99, Origin::Legit, 0.0), PreconditionError);
  EXPECT_THROW(engine.announce(0, Origin::None, 0.0), PreconditionError);
}

TEST(EventEngine, ResetClearsEverything) {
  const AsGraph g = diamond();
  EventEngine engine(g, config_for(g));
  engine.announce(g.require(4), Origin::Legit, 0.0);
  engine.announce(g.require(3), Origin::Attacker, 1.0);
  engine.reset();
  for (AsId v = 0; v < g.num_ases(); ++v) {
    EXPECT_FALSE(engine.route(v).valid());
    EXPECT_LT(engine.first_bogus_time(v), 0.0);
  }
}

TEST(EventEngine, LinkDelaysInRange) {
  const AsGraph g = diamond();
  auto cfg = config_for(g);
  cfg.min_delay = 0.05;
  cfg.max_delay = 0.10;
  EventEngine engine(g, cfg);
  for (AsId v = 0; v < g.num_ases(); ++v) {
    for (std::uint32_t k = 0; k < g.degree(v); ++k) {
      EXPECT_GE(engine.link_delay(v, k), 0.05);
      EXPECT_LT(engine.link_delay(v, k), 0.10);
    }
  }
}

}  // namespace
}  // namespace bgpsim
