#include "campaign/sampler.hpp"

#include <utility>

#include "support/assert.hpp"
#include "topology/metrics.hpp"

namespace bgpsim::campaign {

namespace {

/// Depth at or below which an AS counts as "shallow" (§IV: most of the
/// vulnerability signal separates depth <= 2 from the deeper tail).
constexpr std::uint16_t kShallowDepth = 2;

}  // namespace

std::vector<Stratum> build_attacker_strata(const Scenario& scenario) {
  const AsGraph& graph = scenario.graph();
  const TierClassification& tiers = scenario.tiers();
  const std::vector<std::uint16_t>& depth = scenario.depth();

  // Fixed bucket order so stratum indices (and with them the per-stratum
  // RNG streams) are stable across runs.
  Stratum buckets[6];
  buckets[0].label = "tier1";
  buckets[1].label = "tier2";
  buckets[2].label = "transit_shallow";
  buckets[3].label = "transit_deep";
  buckets[4].label = "stub_multi";
  buckets[5].label = "stub_single";

  const std::uint32_t n = graph.num_ases();
  for (AsId id = 0; id < n; ++id) {
    std::size_t bucket;
    if (tiers.is_tier1[id] != 0) {
      bucket = 0;
    } else if (tiers.is_tier2[id] != 0) {
      bucket = 1;
    } else if (!graph.is_stub(id)) {
      bucket = depth[id] <= kShallowDepth ? 2 : 3;
    } else if (graph.degree(id) >= 2) {
      bucket = 4;  // multi-connected stub: several providers/peers to abuse
    } else {
      bucket = 5;
    }
    buckets[bucket].attackers.push_back(id);
  }

  std::vector<Stratum> strata;
  for (Stratum& bucket : buckets) {
    if (bucket.attackers.empty()) continue;
    bucket.weight =
        static_cast<double>(bucket.attackers.size()) / static_cast<double>(n);
    strata.push_back(std::move(bucket));
  }
  return strata;
}

CampaignSampler::CampaignSampler(std::uint64_t seed, std::vector<AsId> victims)
    : seed_(seed), victims_(std::move(victims)) {
  BGPSIM_REQUIRE(!victims_.empty(), "campaign needs a non-empty victim pool");
}

SamplePair CampaignSampler::draw(const Stratum& stratum,
                                 std::uint32_t stratum_index,
                                 std::uint64_t sample_index) const {
  BGPSIM_DASSERT(!stratum.attackers.empty(), "empty stratum");
  Rng rng(derive_seed(derive_seed(seed_, stratum_index), sample_index));
  SamplePair pair;
  pair.attacker = stratum.attackers[rng.bounded(stratum.attackers.size())];
  pair.victim = victims_[rng.bounded(victims_.size())];
  // An AS cannot hijack itself; redraw from the same deterministic stream.
  // The retry cap only binds in the degenerate one-victim pool, where the
  // attacker is swapped instead so the draw still terminates.
  for (int retry = 0; pair.victim == pair.attacker && retry < 64; ++retry) {
    pair.victim = victims_[rng.bounded(victims_.size())];
  }
  if (pair.victim == pair.attacker && stratum.attackers.size() > 1) {
    const std::size_t j = rng.bounded(stratum.attackers.size() - 1);
    pair.attacker = stratum.attackers[j] == pair.attacker
                        ? stratum.attackers.back()
                        : stratum.attackers[j];
  }
  BGPSIM_REQUIRE(pair.victim != pair.attacker,
                 "victim pool and stratum collapse to one AS");
  pair.reservoir_word = rng.next();
  return pair;
}

}  // namespace bgpsim::campaign
