// Integration: block replay through a streaming aartr BlockSource
// must produce exactly the per-block (coverage, success) series that
// in-memory replay produces, for every maintenance strategy — the
// correctness contract that lets the out-of-core path substitute for the
// in-memory one (ISSUE 1 acceptance criterion).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>

#include "test_tmp.hpp"
#include "core/strategy.hpp"
#include "core/trace_simulator.hpp"
#include "store/block_source.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "trace/block_source.hpp"
#include "trace/generator.hpp"

namespace aar::core {
namespace {

constexpr std::size_t kBlockSize = 1'000;
constexpr std::size_t kBlocks = 25;  // bootstrap + 24 tested

std::vector<trace::QueryReplyPair> replay_trace() {
  trace::TraceConfig config;
  config.seed = 99;
  config.block_size = kBlockSize;
  trace::TraceGenerator generator(config);
  return generator.generate_pairs(kBlocks * kBlockSize + 250);  // ragged tail
}

std::unique_ptr<Strategy> make(const std::string& name) {
  constexpr std::uint32_t kMinSupport = 5;
  if (name == "static") return std::make_unique<StaticRuleset>(kMinSupport);
  if (name == "sliding") return std::make_unique<SlidingWindow>(kMinSupport);
  if (name == "lazy") return std::make_unique<LazySlidingWindow>(kMinSupport, 5);
  return std::make_unique<AdaptiveSlidingWindow>(kMinSupport, 10);
}

void expect_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.blocks_tested, b.blocks_tested);
  EXPECT_EQ(a.rulesets_generated, b.rulesets_generated);
  ASSERT_EQ(a.coverage.size(), b.coverage.size());
  for (std::size_t i = 0; i < a.coverage.size(); ++i) {
    EXPECT_EQ(a.coverage[i], b.coverage[i]) << "coverage diverges at block " << i;
    EXPECT_EQ(a.success[i], b.success[i]) << "success diverges at block " << i;
  }
}

class StoreReplay : public ::testing::TestWithParam<const char*> {
 protected:
  static void SetUpTestSuite() {
    pairs_ = new std::vector<trace::QueryReplyPair>(replay_trace());
    // Chunk size deliberately misaligned with the block size so every block
    // spans chunk boundaries.
    store::write_pairs_file(file_path(), *pairs_, 768);
  }
  static void TearDownTestSuite() {
    delete pairs_;
    pairs_ = nullptr;
    std::remove(file_path().c_str());
  }
  static std::string file_path() {
    // Shared process-unique prefix (tests/test_tmp.hpp): fixed names are
    // flaky under ctest -j.
    return aar::testing::unique_path("replay.aartr");
  }
  static std::vector<trace::QueryReplyPair>* pairs_;
};

std::vector<trace::QueryReplyPair>* StoreReplay::pairs_ = nullptr;

TEST_P(StoreReplay, DiskReplayMatchesInMemory) {
  auto in_memory_strategy = make(GetParam());
  const SimulationResult in_memory =
      run_trace_simulation(*in_memory_strategy, *pairs_, kBlockSize);

  const store::Reader reader(file_path());
  store::StoreBlockSource source(reader);
  auto streamed_strategy = make(GetParam());
  const SimulationResult streamed =
      run_trace_simulation(*streamed_strategy, source, kBlockSize);

  EXPECT_EQ(in_memory.blocks_tested, kBlocks - 1);
  expect_identical(in_memory, streamed);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, StoreReplay,
                         ::testing::Values("static", "sliding", "lazy",
                                           "adaptive"));

TEST(SpanBlockSource, MatchesDirectSpanReplay) {
  // The span overload is itself implemented over SpanBlockSource; pin the
  // pull-based contract explicitly: whole blocks in order, then empty.
  const auto pairs = replay_trace();
  trace::SpanBlockSource source(pairs);
  std::size_t offset = 0;
  while (true) {
    const auto block = source.next_block(kBlockSize);
    if (block.empty()) break;
    ASSERT_EQ(block.size(), kBlockSize);
    EXPECT_EQ(block.data(), pairs.data() + offset);  // zero-copy view
    offset += kBlockSize;
  }
  EXPECT_EQ(offset, kBlocks * kBlockSize);  // ragged 250-pair tail dropped
}

}  // namespace
}  // namespace aar::core
