#include "mining/incremental_miner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "node/snapshot.hpp"
#include "overlay/assoc_policy.hpp"
#include "util/rng.hpp"

namespace aar::mining {
namespace {

using trace::QueryReplyPair;

QueryReplyPair pair_of(HostId source, HostId replier, trace::Guid guid = 0) {
  return QueryReplyPair{.time = 0.0,
                        .guid = guid,
                        .source_host = source,
                        .replying_neighbor = replier};
}

std::string saved(const core::RuleSet& rules) {
  std::ostringstream os;
  rules.save(os);
  return os.str();
}

/// The batch reference: RuleSet::build over the miner's live window, which a
/// snapshot must reproduce byte-for-byte.
core::RuleSet batch_of(const std::deque<QueryReplyPair>& window,
                       const MinerConfig& config) {
  const std::vector<QueryReplyPair> pairs(window.begin(), window.end());
  return core::RuleSet::build(pairs, config.min_support, config.min_confidence);
}

/// Snapshot the miner and assert byte-identical agreement with batch mining
/// over the reference window.
void expect_snapshot_matches(IncrementalRuleMiner& miner,
                             const std::deque<QueryReplyPair>& window,
                             const std::string& context) {
  ASSERT_EQ(miner.window_size(), window.size()) << context;
  const core::RuleSet& snapshot = miner.snapshot();
  const core::RuleSet batch = batch_of(window, miner.config());
  EXPECT_EQ(snapshot, batch) << context;
  EXPECT_EQ(snapshot.num_rules(), batch.num_rules()) << context;
  EXPECT_EQ(snapshot.num_antecedents(), batch.num_antecedents()) << context;
  EXPECT_EQ(saved(snapshot), saved(batch)) << context;
}

TEST(IncrementalRuleMiner, EmptyMinerSnapshotsEmptyRuleSet) {
  IncrementalRuleMiner miner({.window = 8, .min_support = 1});
  EXPECT_TRUE(miner.snapshot().empty());
  EXPECT_EQ(miner.window_size(), 0u);
  EXPECT_EQ(miner.distinct_antecedents(), 0u);
}

TEST(IncrementalRuleMiner, CountsAndSortsLikeBatchBuild) {
  IncrementalRuleMiner miner({.window = 0, .min_support = 2});
  std::deque<QueryReplyPair> window;
  // 7->3 five times, 7->4 twice, 7->5 twice (tie broken by neighbor id),
  // 8->1 once (pruned).
  const std::vector<QueryReplyPair> pairs{
      pair_of(7, 3), pair_of(7, 4), pair_of(7, 3), pair_of(7, 5),
      pair_of(7, 3), pair_of(8, 1), pair_of(7, 5), pair_of(7, 4),
      pair_of(7, 3), pair_of(7, 3)};
  for (const auto& pair : pairs) {
    miner.add(pair);
    window.push_back(pair);
  }
  expect_snapshot_matches(miner, window, "fixed example");
  const auto consequents = miner.ruleset().consequents(7);
  ASSERT_EQ(consequents.size(), 3u);
  EXPECT_EQ(consequents[0], (core::Consequent{3, 5}));
  EXPECT_EQ(consequents[1], (core::Consequent{4, 2}));  // tie: lower id first
  EXPECT_EQ(consequents[2], (core::Consequent{5, 2}));
  EXPECT_FALSE(miner.ruleset().covers(8));  // below min_support
}

TEST(IncrementalRuleMiner, MinSupportBoundaryCrossedByEviction) {
  // Window 4, min_support 2: the rule lives exactly while two copies of
  // (7,3) are inside the window.
  IncrementalRuleMiner miner({.window = 4, .min_support = 2});
  std::deque<QueryReplyPair> window;
  auto slide = [&](HostId s, HostId r) {
    miner.add(pair_of(s, r));
    window.push_back(pair_of(s, r));
    while (window.size() > 4) window.pop_front();
  };
  slide(7, 3);
  expect_snapshot_matches(miner, window, "support 1 of 2");
  EXPECT_FALSE(miner.ruleset().matches(7, 3));
  slide(7, 3);
  expect_snapshot_matches(miner, window, "support exactly at threshold");
  EXPECT_TRUE(miner.ruleset().matches(7, 3));
  slide(9, 1);
  slide(9, 1);
  slide(9, 1);  // evicts the first (7,3): support drops back below threshold
  expect_snapshot_matches(miner, window, "support evicted below threshold");
  EXPECT_FALSE(miner.ruleset().matches(7, 3));
}

TEST(IncrementalRuleMiner, TotalEvictionRemovesAntecedent) {
  IncrementalRuleMiner miner({.window = 0, .min_support = 1});
  for (int i = 0; i < 3; ++i) miner.add(pair_of(7, 3));
  for (int i = 0; i < 2; ++i) miner.add(pair_of(8, 4));
  EXPECT_TRUE(miner.snapshot().covers(7));
  // Evict all of antecedent 7's pairs (they are oldest).
  miner.evict_to(2);
  EXPECT_EQ(miner.evictions(), 3u);
  const core::RuleSet& rules = miner.snapshot();
  EXPECT_FALSE(rules.covers(7));
  EXPECT_TRUE(rules.matches(8, 4));
  EXPECT_EQ(rules.num_antecedents(), 1u);
  EXPECT_EQ(miner.distinct_antecedents(), 1u);
}

TEST(IncrementalRuleMiner, RingWrapAroundKeepsWindowExact) {
  // Capacity 7 (not a power of two) forces head wrap-around many times over.
  IncrementalRuleMiner miner({.window = 7, .min_support = 1});
  std::deque<QueryReplyPair> window;
  util::Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const auto pair = pair_of(static_cast<HostId>(rng.below(4)),
                              static_cast<HostId>(10 + rng.below(4)));
    miner.add(pair);
    window.push_back(pair);
    while (window.size() > 7) window.pop_front();
    ASSERT_EQ(miner.window_size(), window.size());
    for (std::size_t j = 0; j < window.size(); ++j) {
      ASSERT_EQ(miner.window_pair(j), window[j]) << "i=" << i << " j=" << j;
    }
  }
  expect_snapshot_matches(miner, window, "after 500 wrap-around adds");
}

TEST(IncrementalRuleMiner, DifferentialRandomizedAgainstBatch) {
  // Randomized windows over small host spaces (to force collisions),
  // snapshotting at random points; every snapshot must equal batch mining
  // over the live window, byte for byte.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    util::Rng rng(seed);
    const std::size_t window_cap = 1 + rng.below(40);      // 1 .. 40
    const auto min_support = static_cast<std::uint32_t>(1 + rng.below(4));
    MinerConfig config{.window = window_cap, .min_support = min_support};
    IncrementalRuleMiner miner(config);
    std::deque<QueryReplyPair> window;
    const HostId sources = static_cast<HostId>(2 + rng.below(5));
    const HostId repliers = static_cast<HostId>(2 + rng.below(5));
    for (int i = 0; i < 600; ++i) {
      const auto pair = pair_of(static_cast<HostId>(rng.below(sources)),
                                static_cast<HostId>(100 + rng.below(repliers)));
      miner.add(pair);
      window.push_back(pair);
      while (window.size() > window_cap) window.pop_front();
      if (rng.chance(0.1)) {
        expect_snapshot_matches(miner, window,
                                "seed=" + std::to_string(seed) +
                                    " i=" + std::to_string(i));
      }
    }
    expect_snapshot_matches(miner, window,
                            "seed=" + std::to_string(seed) + " final");
  }
}

TEST(IncrementalRuleMiner, DifferentialWithConfidencePruning) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    util::Rng rng(seed);
    MinerConfig config{
        .window = 24, .min_support = 2, .min_confidence = 0.25};
    IncrementalRuleMiner miner(config);
    std::deque<QueryReplyPair> window;
    for (int i = 0; i < 400; ++i) {
      // Two sources, replier skew so confidences straddle the 0.25 cut.
      const auto pair = pair_of(static_cast<HostId>(rng.below(2)),
                                static_cast<HostId>(10 + rng.below(5)));
      miner.add(pair);
      window.push_back(pair);
      while (window.size() > 24) window.pop_front();
      if (i % 37 == 0) {
        expect_snapshot_matches(miner, window,
                                "confidence seed=" + std::to_string(seed) +
                                    " i=" + std::to_string(i));
      }
    }
    expect_snapshot_matches(miner, window, "confidence final");
  }
}

TEST(IncrementalRuleMiner, ManualEvictionMatchesBatch) {
  // Unbounded window driven with evict_to(), the core::Strategy pattern.
  IncrementalRuleMiner miner({.window = 0, .min_support = 2});
  std::deque<QueryReplyPair> window;
  util::Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    const std::size_t adds = 5 + rng.below(30);
    for (std::size_t i = 0; i < adds; ++i) {
      const auto pair = pair_of(static_cast<HostId>(rng.below(4)),
                                static_cast<HostId>(50 + rng.below(3)));
      miner.add(pair);
      window.push_back(pair);
    }
    const std::size_t keep = rng.below(window.size() + 1);
    miner.evict_to(keep);
    while (window.size() > keep) window.pop_front();
    expect_snapshot_matches(miner, window, "round " + std::to_string(round));
  }
}

TEST(IncrementalRuleMiner, SnapshotIsStableBetweenChanges) {
  IncrementalRuleMiner miner({.window = 0, .min_support = 1});
  miner.add(pair_of(1, 2));
  const core::RuleSet& first = miner.snapshot();
  const std::string bytes = saved(first);
  EXPECT_EQ(miner.dirty_antecedents(), 0u);
  // A second snapshot with no window churn re-materializes nothing.
  const core::RuleSet& second = miner.snapshot();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(saved(second), bytes);
  EXPECT_EQ(miner.snapshots_taken(), 2u);
}

TEST(IncrementalRuleMiner, RulesetLagsUntilSnapshot) {
  IncrementalRuleMiner miner({.window = 0, .min_support = 1});
  miner.add(pair_of(1, 2));
  EXPECT_TRUE(miner.ruleset().empty());  // counts moved, view did not
  EXPECT_EQ(miner.dirty_antecedents(), 1u);
  miner.snapshot();
  EXPECT_TRUE(miner.ruleset().matches(1, 2));
}

TEST(IncrementalRuleMiner, ClearEmptiesEverything) {
  IncrementalRuleMiner miner({.window = 8, .min_support = 1});
  for (int i = 0; i < 6; ++i) miner.add(pair_of(1, 2));
  EXPECT_FALSE(miner.snapshot().empty());
  miner.clear();
  EXPECT_EQ(miner.window_size(), 0u);
  EXPECT_TRUE(miner.snapshot().empty());
  EXPECT_EQ(miner.distinct_antecedents(), 0u);
}

// --- the refactored consumers stay equivalent to batch mining ---------------

TEST(MinerBackedStrategy, SlidingRegenerateEqualsBatchBuild) {
  core::SlidingWindow strategy(2);
  util::Rng rng(5);
  std::vector<QueryReplyPair> previous;
  for (int block = 0; block < 6; ++block) {
    std::vector<QueryReplyPair> pairs;
    for (int i = 0; i < 64; ++i) {
      pairs.push_back(pair_of(static_cast<HostId>(rng.below(5)),
                              static_cast<HostId>(20 + rng.below(4)),
                              static_cast<trace::Guid>(block * 1000 + i)));
    }
    if (block == 0) {
      strategy.bootstrap(pairs);
    } else {
      strategy.test_block(pairs);
    }
    const core::RuleSet batch = core::RuleSet::build(pairs, 2);
    EXPECT_EQ(strategy.current_ruleset(), batch) << "block " << block;
    EXPECT_EQ(saved(strategy.current_ruleset()), saved(batch));
    previous = std::move(pairs);
  }
}

TEST(MinerBackedPolicy, RulesEqualBatchOverObservationWindow) {
  overlay::AssociationPolicyConfig config;
  config.window = 48;
  config.rebuild_every = 16;
  config.min_support = 2;
  overlay::AssociationRoutingPolicy policy(config);
  util::Rng rng(9);
  std::deque<QueryReplyPair> window;
  std::size_t since_rebuild = 0;
  core::RuleSet expected;
  for (trace::Guid g = 0; g < 300; ++g) {
    const auto upstream = static_cast<overlay::NodeId>(rng.below(6));
    const auto downstream = static_cast<overlay::NodeId>(rng.below(6));
    policy.on_reply_path(overlay::Query{.guid = g, .target = 0, .category = 0,
                                        .origin = 0},
                         /*self=*/0, upstream, downstream);
    window.push_back(pair_of(upstream, downstream, g));
    while (window.size() > config.window) window.pop_front();
    if (++since_rebuild >= config.rebuild_every) {
      since_rebuild = 0;
      const std::vector<QueryReplyPair> pairs(window.begin(), window.end());
      expected = core::RuleSet::build(pairs, config.min_support);
    }
    ASSERT_EQ(policy.rules(), expected) << "observation " << g;
  }
  EXPECT_EQ(policy.miner().window_size(), window.size());
}

// --- MiningHub: the node daemon's delta merge vs a serial miner ----------

/// One random scenario: pairs appended to random shards in capture order,
/// merges at every note_pair() boundary plus random extra ones, disconnect
/// purges interleaved (pairs naming departed hosts keep arriving and must
/// be dropped).  After every merge and purge the hub's published rule
/// bytes equal a serial miner fed the same live pairs in (time, GUID)
/// order and purged at the same points.
void expect_hub_matches_serial(std::size_t shards, std::size_t window,
                               std::uint64_t seed) {
  constexpr HostId kHosts = 12;
  const MinerConfig config{.window = window, .min_support = 2};
  node::PeerDirectory peers;
  for (HostId h = 1; h <= kHosts; ++h) {
    (void)peers.add(h, static_cast<std::uint32_t>(h % shards));
  }
  std::vector<node::ShardWindow> windows(shards);
  node::MiningHub hub(config, /*rebuild_every=*/16, shards);
  IncrementalRuleMiner serial(config);
  std::vector<QueryReplyPair> pending;  // appended, not yet merged
  std::vector<bool> dead(kHosts + 1, false);
  util::Rng rng(seed);
  std::size_t merges = 0;

  const auto merge = [&] {
    hub.merge(windows, *peers.list());
    for (const QueryReplyPair& pair : pending) {
      if (!dead[pair.source_host] && !dead[pair.replying_neighbor]) {
        serial.add(pair);
      }
    }
    pending.clear();
    ++merges;
    ASSERT_EQ(saved(hub.routing()->rules), saved(serial.snapshot()))
        << "merge " << merges;
  };

  for (std::size_t i = 0; i < 1500; ++i) {
    const QueryReplyPair pair{
        .time = static_cast<double>(i + 1),
        .guid = seed * 1'000'003 + i,
        .source_host = static_cast<HostId>(1 + rng.below(kHosts)),
        .replying_neighbor = static_cast<HostId>(1 + rng.below(kHosts))};
    windows[rng.below(shards)].append(pair);
    pending.push_back(pair);
    if (hub.note_pair()) merge();
    if (rng.below(97) == 0) merge();
    if (rng.below(211) == 0) {
      const auto host = static_cast<HostId>(1 + rng.below(kHosts));
      if (dead[host]) continue;
      dead[host] = true;
      peers.remove(static_cast<node::NeighborId>(host));
      hub.purge(static_cast<node::NeighborId>(host));
      (void)serial.purge_host(host);
      ASSERT_EQ(saved(hub.routing()->rules), saved(serial.snapshot()))
          << "purge of host " << host;
    }
  }
  EXPECT_GT(merges, 1500u / 16);
  EXPECT_EQ(hub.window_pairs().size(), serial.window_size());
}

TEST(MiningHubDelta, PublishedRulesEqualSerialMinerAcrossShardsWindowsPurges) {
  std::uint64_t seed = 1;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    // Unbounded, and two windows the 1500-pair stream overflows.
    for (const std::size_t window : {0u, 64u, 300u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " window=" + std::to_string(window));
      expect_hub_matches_serial(shards, window, seed++);
    }
  }
}

TEST(MiningHubDelta, LatePairJoinsTheNextDeltaInItsTimeOrder) {
  node::PeerDirectory peers;
  (void)peers.add(1, 0);
  (void)peers.add(2, 1);
  std::vector<node::ShardWindow> windows(2);
  node::MiningHub hub({.window = 8, .min_support = 1}, 64, 2);
  const auto timed = [](double time, trace::Guid guid) {
    QueryReplyPair pair = pair_of(1, 2, guid);
    pair.time = time;
    return pair;
  };
  windows[1].append(timed(2.0, 20));
  hub.merge(windows, *peers.list());
  // Shard 0 lost the race: its older tick lands after the merged pair,
  // ordered among the next delta by (time, GUID).
  windows[0].append(timed(3.0, 30));
  windows[0].append(timed(1.0, 10));
  windows[1].append(timed(1.0, 5));
  hub.merge(windows, *peers.list());
  std::vector<trace::Guid> order;
  for (const QueryReplyPair& pair : hub.window_pairs()) {
    order.push_back(pair.guid);
  }
  EXPECT_EQ(order, (std::vector<trace::Guid>{20, 5, 10, 30}));
}

}  // namespace
}  // namespace aar::mining
