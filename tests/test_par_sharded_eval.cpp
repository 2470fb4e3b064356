// Property and stress tests for core::ShardedEvaluator, the GUID-sharded
// block evaluation behind threaded replay: the shard function and the
// sharded evaluate, each checked against its serial ground truth, including
// under ThreadPool saturation (the "Par" suites run in the TSan CI job).
// The end-to-end golden suite lives in test_par_differential.cpp.

#include "core/sharded_evaluator.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <vector>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "trace/record.hpp"

namespace aar::core {
namespace {

using trace::QueryReplyPair;

QueryReplyPair pair(trace::Guid guid, trace::HostId source,
                    trace::HostId replier) {
  return {.time = 0.0, .guid = guid, .source_host = source,
          .replying_neighbor = replier};
}

/// Random pair stream with enough host collisions that support pruning and
/// multi-reply GUIDs both actually occur.
std::vector<QueryReplyPair> random_stream(std::uint64_t seed,
                                          std::size_t pairs) {
  std::mt19937_64 rng(seed);
  std::vector<QueryReplyPair> stream;
  stream.reserve(pairs);
  trace::Guid guid = 0;
  while (stream.size() < pairs) {
    ++guid;
    const auto source = static_cast<trace::HostId>(rng() % 40);
    // 1–3 replies per query, sometimes through distinct neighbors.
    const std::size_t replies = 1 + rng() % 3;
    for (std::size_t r = 0; r < replies && stream.size() < pairs; ++r) {
      stream.push_back(
          pair(guid, source, static_cast<trace::HostId>(100 + rng() % 12)));
    }
  }
  return stream;
}

// ------------------------------------------------------------ shard_of

TEST(ParShardOf, PinnedValuesGuardPlatformStability) {
  // The partition must be identical across platforms and standard
  // libraries, so the SplitMix64 finalizer is pinned to concrete values
  // rather than just range-checked.
  EXPECT_EQ(shard_of(0, 16), 15u);
  EXPECT_EQ(shard_of(1, 16), 1u);
  EXPECT_EQ(shard_of(42, 16), 5u);
  EXPECT_EQ(shard_of(~std::uint64_t{0}, 16), 0u);
  EXPECT_EQ(shard_of(0, 7), 2u);
  EXPECT_EQ(shard_of(42, 7), 5u);
}

TEST(ParShardOf, AlwaysBelowShardCountAndSpreads) {
  for (const std::size_t shards : {1u, 2u, 3u, 7u, 16u}) {
    std::vector<std::size_t> hits(shards, 0);
    for (trace::Guid guid = 0; guid < 4'096; ++guid) {
      const std::size_t s = shard_of(guid, shards);
      ASSERT_LT(s, shards);
      ++hits[s];
    }
    // A degenerate shard function would funnel everything into one bucket
    // and serialize the pool; require a loose spread instead.
    for (const std::size_t h : hits) {
      EXPECT_GT(h, 4'096 / (4 * shards));
    }
  }
}

// ---------------------------------------------------------- evaluator

TEST(ParExecutor, EvaluateMatchesSerialEvaluate) {
  const auto train = random_stream(21, 2'000);
  const auto test = random_stream(22, 2'000);
  const RuleSet rules = RuleSet::build(train, 2);
  const BlockMeasures serial = evaluate(rules, test);
  for (const std::size_t threads : {1u, 2u, 3u}) {
    ShardedEvaluator evaluator(threads);
    const BlockMeasures sharded = evaluator.evaluate(rules, test);
    EXPECT_EQ(sharded.total_queries, serial.total_queries) << threads;
    EXPECT_EQ(sharded.covered, serial.covered) << threads;
    EXPECT_EQ(sharded.successful, serial.successful) << threads;
  }
}

TEST(ParExecutor, ClampsDegenerateConfiguration) {
  ShardedEvaluator evaluator(0);  // 0 threads means all cores, never none
  EXPECT_GE(evaluator.threads(), 1u);
  const auto block = random_stream(24, 500);
  const RuleSet rules = RuleSet::build(block, 1);
  EXPECT_EQ(evaluator.evaluate(rules, block).covered,
            evaluate(rules, block).covered);
  const std::vector<QueryReplyPair> empty;
  EXPECT_EQ(evaluator.evaluate(rules, empty).total_queries, 0u);
}

TEST(ParExecutor, ThreadPoolSaturationStress) {
  // More shards than workers and many consecutive blocks through one
  // evaluator, so the shard buffers are reused under a saturated queue.
  // Every round must still match the serial ground truth (and run clean
  // under TSan).
  ShardedEvaluator evaluator(8);
  for (std::uint64_t round = 0; round < 25; ++round) {
    const auto block = random_stream(100 + round, 1'200);
    const RuleSet rules = RuleSet::build(random_stream(200 + round, 1'200), 2);
    const BlockMeasures expect = evaluate(rules, block);
    const BlockMeasures got = evaluator.evaluate(rules, block);
    ASSERT_EQ(got.total_queries, expect.total_queries) << round;
    ASSERT_EQ(got.covered, expect.covered) << round;
    ASSERT_EQ(got.successful, expect.successful) << round;
  }
}

}  // namespace
}  // namespace aar::core
