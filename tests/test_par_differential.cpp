// Frozen block-replay goldens (tests/data/golden_replay.v1) and the
// thread-count determinism suite for core::run_trace_simulation
// (docs/PARALLEL.md).
//
// The golden was written once by the serial replay loop, before threaded
// evaluation existed in its current form.  For every strategy (static /
// sliding / lazy / adaptive / incremental / streaming), both trace sources
// (in-memory CSV load and streamed .aartr) and every thread count in
// {1, 2, 3, 8}, a replay must reproduce
//
//   * the SimulationResult (strategy, block size, min support, generation
//     and block counters, and the full per-block α/ρ series at round-trip
//     precision; the wall-clock eval_seconds series is excluded),
//   * the final RuleSet::save bytes (FNV-1a hash and length),
//   * the nonzero timer-free aar.metrics.v1 entries, minus the
//     store.prefetch_hits/waits split (their SUM is deterministic, the split
//     depends on thread scheduling).
//
// Regenerate (only when a change is meant to move the bytes): running
//   build/tests/aar_tests --gtest_filter='ParDifferentialTest.ParallelMatchesSerial*'
// with AAR_REPLAY_GOLDEN_OUT=<file> set appends every entry to <file>
// instead of comparing.

#include "core/trace_simulator.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "store/block_source.hpp"
#include "store/reader.hpp"
#include "store/writer.hpp"
#include "test_golden.hpp"
#include "trace/database.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/record.hpp"

namespace aar::core {
namespace {

constexpr std::size_t kBlockSize = 1'000;
constexpr std::uint32_t kMinSupport = 5;

trace::TraceConfig fast_config() {
  trace::TraceConfig config;
  config.seed = 7;
  config.block_size = kBlockSize;
  config.active_hosts = 80;
  config.reply_neighbors = 16;
  return config;
}

std::vector<trace::QueryReplyPair> pairs_for_blocks(std::size_t blocks) {
  trace::TraceGenerator gen(fast_config());
  return gen.generate_pairs(blocks * kBlockSize);
}

std::unique_ptr<Strategy> make_strategy(const std::string& name) {
  if (name == "static") return std::make_unique<StaticRuleset>(kMinSupport);
  if (name == "sliding") return std::make_unique<SlidingWindow>(kMinSupport);
  if (name == "lazy") {
    return std::make_unique<LazySlidingWindow>(kMinSupport, 3);
  }
  if (name == "adaptive") {
    return std::make_unique<AdaptiveSlidingWindow>(kMinSupport, 5);
  }
  if (name == "incremental") {
    return std::make_unique<IncrementalRuleset>(kMinSupport);
  }
  return std::make_unique<StreamingRuleset>(kMinSupport);
}

const std::vector<std::string>& strategy_names() {
  static const std::vector<std::string> names{
      "static", "sliding", "lazy", "adaptive", "incremental", "streaming"};
  return names;
}

/// Canonical byte encoding of everything deterministic in a
/// SimulationResult: all fields except the wall-clock eval_seconds series,
/// with series values printed at full round-trip precision.
std::string encode(const SimulationResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << result.strategy << '|' << result.block_size << '|'
     << result.min_support << '|' << result.rulesets_generated << '|'
     << result.blocks_tested;
  for (const double v : result.coverage.values()) os << '|' << v;
  os << '#';
  for (const double v : result.success.values()) os << '|' << v;
  return os.str();
}

/// Nonzero timer-free metrics, one entry per line, without the
/// timing-racy prefetch hit/wait split.
std::string scrubbed_metrics() {
  static const std::regex racy(
      R"re("store\.prefetch_(hits|waits)":\d+\n)re");
  return std::regex_replace(testing::nonzero_metrics(), racy, "");
}

enum class SourceKind { memory, aartr };

const char* source_name(SourceKind kind) {
  return kind == SourceKind::memory ? "memory" : "aartr";
}

struct RunOutput {
  std::string result_bytes;
  std::string ruleset_bytes;
  std::string metrics;
};

/// One replay from a cold strategy and a reset registry.
RunOutput run_once(const std::string& strategy_name,
                   const std::vector<trace::QueryReplyPair>& pairs,
                   const std::string& aartr_path, SourceKind kind,
                   std::size_t threads) {
  obs::Registry::global().reset();
  std::unique_ptr<Strategy> strategy = make_strategy(strategy_name);
  SimulationResult result;
  if (kind == SourceKind::memory) {
    result = run_trace_simulation(*strategy, pairs, kBlockSize, threads);
  } else {
    const store::Reader reader(aartr_path);
    store::StoreBlockSource source(reader);
    result = run_trace_simulation(*strategy, source, kBlockSize, threads);
  }

  RunOutput out;
  out.result_bytes = encode(result);
  std::ostringstream ruleset;
  strategy->current_ruleset().save(ruleset);
  out.ruleset_bytes = ruleset.str();
  out.metrics = scrubbed_metrics();
  return out;
}

class ParDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // One 9-block trace (bootstrap + 8 tested), shared by every case.  The
    // CSV round trip mimics aar_sim's --trace path for in-memory replay;
    // the .aartr file feeds the streamed store path.  File names carry the
    // pid: ctest runs each case as its own process, so concurrent cases
    // would otherwise write and read the same TempDir paths mid-write.
    const auto generated = pairs_for_blocks(9);
    const std::string tag = std::to_string(static_cast<long>(::getpid()));
    const std::string dir = ::testing::TempDir();
    const std::string csv = dir + "/par_diff_pairs." + tag + ".csv";
    trace::Database db;
    db.set_pairs(generated);
    trace::write_pairs_csv(csv, db);
    pairs_ = new std::vector<trace::QueryReplyPair>(trace::read_pairs_csv(csv));
    aartr_path_ = new std::string(dir + "/par_diff_pairs." + tag + ".aartr");
    store::write_pairs_file(*aartr_path_, *pairs_);
    std::remove(csv.c_str());
  }
  static void TearDownTestSuite() {
    if (aartr_path_ != nullptr) std::remove(aartr_path_->c_str());
    delete pairs_;
    delete aartr_path_;
    pairs_ = nullptr;
    aartr_path_ = nullptr;
  }

  static const std::vector<trace::QueryReplyPair>& pairs() { return *pairs_; }
  static const std::string& aartr_path() { return *aartr_path_; }

  /// Every strategy over `kind` at `threads`, checked against the golden.
  static void check_golden(SourceKind kind, std::size_t threads) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    testing::GoldenEntries entries("golden_replay.v1", "AAR_REPLAY_GOLDEN_OUT");
    for (const std::string& name : strategy_names()) {
      const RunOutput out = run_once(name, pairs(), aartr_path(), kind, threads);
      const std::string prefix = name + '.' + source_name(kind);
      entries.add(prefix + ".result", out.result_bytes);
      entries.add(prefix + ".ruleset",
                  testing::hex(testing::fnv1a(out.ruleset_bytes)) + ' ' +
                      std::to_string(out.ruleset_bytes.size()));
      std::string metrics = out.metrics;
      if (!metrics.empty()) metrics.pop_back();  // one line, space-separated
      std::replace(metrics.begin(), metrics.end(), '\n', ' ');
      entries.add(prefix + ".metrics", metrics);
    }
    entries.check();
  }

 private:
  static std::vector<trace::QueryReplyPair>* pairs_;
  static std::string* aartr_path_;
};

std::vector<trace::QueryReplyPair>* ParDifferentialTest::pairs_ = nullptr;
std::string* ParDifferentialTest::aartr_path_ = nullptr;

TEST_F(ParDifferentialTest, ParallelMatchesSerialInMemory) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    check_golden(SourceKind::memory, threads);
  }
}

TEST_F(ParDifferentialTest, ParallelMatchesSerialStreamedStore) {
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    check_golden(SourceKind::aartr, threads);
  }
}

TEST_F(ParDifferentialTest, MetricsIdenticalAcrossThreadCounts) {
  // No metric depends on the thread count: a threaded run emits exactly the
  // timer-free snapshot of the serial one (only timers, already excluded,
  // may differ).
  for (const std::string& name : strategy_names()) {
    const RunOutput baseline =
        run_once(name, pairs(), aartr_path(), SourceKind::memory, 1);
    for (const std::size_t threads : {2u, 3u, 8u}) {
      const RunOutput other =
          run_once(name, pairs(), aartr_path(), SourceKind::memory, threads);
      EXPECT_EQ(other.metrics, baseline.metrics)
          << name << " threads=" << threads;
    }
  }
}

TEST_F(ParDifferentialTest, StreamedAndInMemorySourcesAgree) {
  // The two source paths replay the same pair stream, so they must produce
  // the same result and rule set at any thread count.
  for (const std::size_t threads : {1u, 8u}) {
    for (const std::string& name : strategy_names()) {
      const RunOutput memory =
          run_once(name, pairs(), aartr_path(), SourceKind::memory, threads);
      const RunOutput streamed =
          run_once(name, pairs(), aartr_path(), SourceKind::aartr, threads);
      EXPECT_EQ(memory.result_bytes, streamed.result_bytes)
          << name << " threads=" << threads;
      EXPECT_EQ(memory.ruleset_bytes, streamed.ruleset_bytes)
          << name << " threads=" << threads;
    }
  }
}

TEST_F(ParDifferentialTest, RepeatedParallelRunsAreIdentical) {
  const RunOutput first =
      run_once("adaptive", pairs(), aartr_path(), SourceKind::memory, 8);
  const RunOutput second =
      run_once("adaptive", pairs(), aartr_path(), SourceKind::memory, 8);
  EXPECT_EQ(first.result_bytes, second.result_bytes);
  EXPECT_EQ(first.ruleset_bytes, second.ruleset_bytes);
  EXPECT_EQ(first.metrics, second.metrics);
}

TEST_F(ParDifferentialTest, RunParallelValidatesLikeSerial) {
  // A threaded replay rejects the same inputs, with the same exception
  // types, as the serial one — before any worker pool exists.
  SlidingWindow strategy(kMinSupport);
  const std::vector<trace::QueryReplyPair> empty;
  EXPECT_THROW((void)run_trace_simulation(strategy, pairs(), 0, 8),
               std::invalid_argument);
  EXPECT_THROW((void)run_trace_simulation(strategy, empty, kBlockSize, 8),
               std::runtime_error);
  const auto single = pairs_for_blocks(1);
  EXPECT_THROW((void)run_trace_simulation(strategy, single, kBlockSize, 8),
               std::runtime_error);
}

}  // namespace
}  // namespace aar::core
