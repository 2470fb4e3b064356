#pragma once
// Block-replay simulator (paper Section IV-B).
//
// Replaces the paper's <500-line PHP/MySQL simulator: splits a query–reply
// pair stream into blocks, bootstraps the strategy on block 0, and tests
// every following block, recording the per-block coverage and success series
// that the paper's figures plot and the generation counter its Section V
// prose reports.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/strategy.hpp"
#include "trace/block_source.hpp"
#include "trace/record.hpp"
#include "util/stats.hpp"

namespace aar::core {

struct SimulationResult {
  std::string strategy;
  std::size_t block_size = 0;
  std::uint32_t min_support = 0;
  util::Series coverage{"coverage"};
  util::Series success{"success"};
  /// Wall-clock seconds spent evaluating (and, per the strategy's policy,
  /// regenerating from) each test block — the per-block timing series that
  /// `aar_sim run --metrics` exports.
  util::Series eval_seconds{"eval_seconds"};
  std::uint64_t rulesets_generated = 0;  ///< bootstrap included
  std::uint64_t blocks_tested = 0;

  [[nodiscard]] double avg_coverage() const noexcept { return coverage.mean(); }
  [[nodiscard]] double avg_success() const noexcept { return success.mean(); }

  /// Blocks tested per rule-set generation *after* bootstrap — the paper's
  /// "new rule sets were generated every 1.7 blocks" statistic.
  [[nodiscard]] double blocks_per_generation() const noexcept {
    const std::uint64_t regens =
        rulesets_generated > 0 ? rulesets_generated - 1 : 0;
    if (regens == 0) return static_cast<double>(blocks_tested);
    return static_cast<double>(blocks_tested) / static_cast<double>(regens);
  }

  [[nodiscard]] std::string to_string() const;
};

/// Replay `pairs` through `strategy` in blocks of `block_size`.
/// Block 0 bootstraps; blocks 1..B-1 are tested.  `threads` == 1 runs
/// everything inline; any other value (0 = hardware_concurrency) evaluates
/// each test block sharded by query GUID on a worker pool, with results,
/// rule sets and timer-free metrics byte-identical to the inline run
/// (docs/PARALLEL.md).  Mining is serial either way.  Throws
/// std::invalid_argument for a zero block size and std::runtime_error when
/// the trace holds fewer than two whole blocks — in every build type, not
/// just under assertions.
[[nodiscard]] SimulationResult run_trace_simulation(
    Strategy& strategy, std::span<const trace::QueryReplyPair> pairs,
    std::size_t block_size, std::size_t threads = 1);

/// Out-of-core variant: pull blocks from `source` until it is exhausted.
/// Only the current block need be resident, so arbitrarily long traces
/// (e.g. a store::StoreBlockSource over an aartr file) replay in bounded
/// memory.  Throws std::invalid_argument for a zero block size and
/// std::runtime_error when the source yields no bootstrap block or no test
/// block.  Produces exactly the per-block series the in-memory overload
/// produces for the same pair stream.
[[nodiscard]] SimulationResult run_trace_simulation(Strategy& strategy,
                                                    trace::BlockSource& source,
                                                    std::size_t block_size,
                                                    std::size_t threads = 1);

}  // namespace aar::core
