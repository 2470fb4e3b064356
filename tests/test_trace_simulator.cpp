#include "core/trace_simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "trace/generator.hpp"

namespace aar::core {
namespace {

trace::TraceConfig fast_config() {
  trace::TraceConfig config;
  config.seed = 7;
  config.block_size = 1'000;
  config.active_hosts = 80;
  config.reply_neighbors = 16;
  return config;
}

std::vector<trace::QueryReplyPair> pairs_for_blocks(std::size_t blocks) {
  trace::TraceGenerator gen(fast_config());
  return gen.generate_pairs(blocks * fast_config().block_size);
}

TEST(TraceSimulator, ResultShapes) {
  const auto pairs = pairs_for_blocks(12);
  SlidingWindow strategy(5);
  const SimulationResult result =
      run_trace_simulation(strategy, pairs, fast_config().block_size);
  EXPECT_EQ(result.strategy, "sliding");
  EXPECT_EQ(result.block_size, 1'000u);
  EXPECT_EQ(result.min_support, 5u);
  EXPECT_EQ(result.blocks_tested, 11u);  // block 0 bootstraps
  EXPECT_EQ(result.coverage.size(), 11u);
  EXPECT_EQ(result.success.size(), 11u);
  EXPECT_EQ(result.rulesets_generated, 12u);
  EXPECT_NE(result.to_string().find("sliding"), std::string::npos);
}

TEST(TraceSimulator, MeasuresAreProbabilities) {
  const auto pairs = pairs_for_blocks(10);
  for (std::uint32_t min_support : {1u, 5u, 20u}) {
    SlidingWindow strategy(min_support);
    const SimulationResult result =
        run_trace_simulation(strategy, pairs, fast_config().block_size);
    for (double v : result.coverage.values()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
    for (double v : result.success.values()) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(TraceSimulator, BlocksPerGenerationArithmetic) {
  const auto pairs = pairs_for_blocks(21);
  LazySlidingWindow strategy(5, 10);
  const SimulationResult result =
      run_trace_simulation(strategy, pairs, fast_config().block_size);
  EXPECT_EQ(result.blocks_tested, 20u);
  // 20 tested blocks, regenerated twice (at 10 and 20) + bootstrap.
  EXPECT_EQ(result.rulesets_generated, 3u);
  EXPECT_DOUBLE_EQ(result.blocks_per_generation(), 10.0);
}

TEST(TraceSimulator, StaticNeverBeatsSlidingOnDriftingTrace) {
  // Integration property: on the calibrated drifting trace, Sliding Window's
  // averages dominate Static Ruleset's — the paper's core comparison.
  const auto pairs = pairs_for_blocks(40);
  StaticRuleset static_strategy(10);
  SlidingWindow sliding_strategy(10);
  const auto static_result =
      run_trace_simulation(static_strategy, pairs, fast_config().block_size);
  const auto sliding_result =
      run_trace_simulation(sliding_strategy, pairs, fast_config().block_size);
  EXPECT_GT(sliding_result.avg_coverage(), static_result.avg_coverage());
  EXPECT_GT(sliding_result.avg_success(), static_result.avg_success());
}

TEST(TraceSimulator, LazySitsBetweenStaticAndSliding) {
  const auto pairs = pairs_for_blocks(40);
  StaticRuleset s(10);
  LazySlidingWindow l(10, 10);
  SlidingWindow w(10);
  const double static_success =
      run_trace_simulation(s, pairs, 1'000).avg_success();
  const double lazy_success = run_trace_simulation(l, pairs, 1'000).avg_success();
  const double sliding_success =
      run_trace_simulation(w, pairs, 1'000).avg_success();
  EXPECT_LT(static_success, lazy_success);
  EXPECT_LT(lazy_success, sliding_success);
}

TEST(TraceSimulator, AdaptiveRegeneratesLessThanSliding) {
  const auto pairs = pairs_for_blocks(40);
  SlidingWindow sliding(10);
  AdaptiveSlidingWindow adaptive(10, 10);
  const auto sliding_result = run_trace_simulation(sliding, pairs, 1'000);
  const auto adaptive_result = run_trace_simulation(adaptive, pairs, 1'000);
  EXPECT_LT(adaptive_result.rulesets_generated,
            sliding_result.rulesets_generated);
  // ...while staying close on quality (within 15% of sliding's coverage).
  EXPECT_GT(adaptive_result.avg_coverage(),
            0.85 * sliding_result.avg_coverage());
}

TEST(TraceSimulator, IncrementalIsBestOfAll) {
  const auto pairs = pairs_for_blocks(40);
  SlidingWindow sliding(10);
  IncrementalRuleset incremental(10);
  const auto sliding_result = run_trace_simulation(sliding, pairs, 1'000);
  const auto incremental_result = run_trace_simulation(incremental, pairs, 1'000);
  EXPECT_GT(incremental_result.avg_coverage(), sliding_result.avg_coverage());
  EXPECT_GT(incremental_result.avg_success(), sliding_result.avg_success());
}

// Regression (ISSUE 2): the bootstrap-block and >=1-test-block invariants
// were assert-only, so a Release build fed a short or empty trace
// bootstrapped on an empty span and returned a zero-block result without
// complaint.  Both overloads must throw in every build type.
TEST(TraceSimulator, EmptyTraceThrows) {
  SlidingWindow strategy(5);
  const std::vector<trace::QueryReplyPair> empty;
  EXPECT_THROW(
      (void)run_trace_simulation(strategy, empty, fast_config().block_size),
      std::runtime_error);
}

TEST(TraceSimulator, SingleBlockTraceThrows) {
  // One whole block: bootstrap would succeed but no test block remains.
  const auto pairs = pairs_for_blocks(1);
  SlidingWindow strategy(5);
  EXPECT_THROW(
      (void)run_trace_simulation(strategy, pairs, fast_config().block_size),
      std::runtime_error);
}

TEST(TraceSimulator, ZeroBlockSizeThrows) {
  const auto pairs = pairs_for_blocks(4);
  SlidingWindow strategy(5);
  EXPECT_THROW((void)run_trace_simulation(strategy, pairs, 0),
               std::invalid_argument);
}

TEST(TraceSimulator, EmptyBlockSourceThrows) {
  const std::vector<trace::QueryReplyPair> empty;
  trace::SpanBlockSource source(empty);
  SlidingWindow strategy(5);
  EXPECT_THROW(
      (void)run_trace_simulation(strategy, source, fast_config().block_size),
      std::runtime_error);
}

TEST(TraceSimulator, BootstrapOnlyBlockSourceThrows) {
  const auto pairs = pairs_for_blocks(1);
  trace::SpanBlockSource source(pairs);
  SlidingWindow strategy(5);
  EXPECT_THROW(
      (void)run_trace_simulation(strategy, source, fast_config().block_size),
      std::runtime_error);
}

TEST(TraceSimulator, EvalSecondsSeriesCoversEveryTestedBlock) {
  const auto pairs = pairs_for_blocks(6);
  SlidingWindow strategy(5);
  const SimulationResult result =
      run_trace_simulation(strategy, pairs, fast_config().block_size);
  ASSERT_EQ(result.eval_seconds.size(), result.blocks_tested);
  for (std::size_t i = 0; i < result.eval_seconds.size(); ++i) {
    EXPECT_GE(result.eval_seconds[i], 0.0);
  }
}

TEST(TraceSimulator, DeterministicAcrossRuns) {
  const auto pairs = pairs_for_blocks(10);
  SlidingWindow a(10);
  SlidingWindow b(10);
  const auto ra = run_trace_simulation(a, pairs, 1'000);
  const auto rb = run_trace_simulation(b, pairs, 1'000);
  ASSERT_EQ(ra.coverage.size(), rb.coverage.size());
  for (std::size_t i = 0; i < ra.coverage.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra.coverage[i], rb.coverage[i]);
    EXPECT_DOUBLE_EQ(ra.success[i], rb.success[i]);
  }
}

}  // namespace
}  // namespace aar::core
