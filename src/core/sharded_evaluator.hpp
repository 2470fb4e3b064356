#pragma once
// GUID-sharded rule-set evaluation — the only threaded stage of the block
// replay (docs/PARALLEL.md).
//
// A test block's query–reply pairs are partitioned by query GUID into a
// FIXED number of shards (independent of the worker count), each shard is
// run through core::evaluate on a util::ThreadPool worker, and the
// per-shard (N, n, s) are summed in shard-index order.  Every GUID lands
// wholly in one shard with its pair order preserved, so the per-query
// first-sight / first-success logic of core::evaluate is untouched and the
// integer sums equal the serial single-pass counts exactly.
//
// The shard function is an explicit SplitMix64 finalizer, not std::hash,
// so the partition is identical across platforms, standard libraries, and
// runs.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "trace/record.hpp"
#include "util/parallel.hpp"

namespace aar::core {

/// Deterministic, platform-stable shard of a query GUID (SplitMix64
/// finalizer).  shards >= 1.
[[nodiscard]] constexpr std::size_t shard_of(trace::Guid guid,
                                             std::size_t shards) noexcept {
  std::uint64_t x = guid + 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % shards);
}

/// core::evaluate spread over a worker pool.  One instance serves one
/// replay; shard buffers are reused block to block, so steady state
/// allocates nothing on the partition path.
class ShardedEvaluator {
 public:
  /// Shards a block is split into, whatever the worker count: workers just
  /// pick up shards until none remain.
  static constexpr std::size_t kShards = 16;

  /// threads == 0 means hardware_concurrency().
  explicit ShardedEvaluator(std::size_t threads) : pool_(threads) {}

  /// Exactly core::evaluate(rules, block), computed shard-wise.
  [[nodiscard]] BlockMeasures evaluate(const RuleSet& rules,
                                       std::span<const QueryReplyPair> block);

  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

 private:
  std::array<std::vector<QueryReplyPair>, kShards> shard_pairs_;
  std::array<BlockMeasures, kShards> shard_measures_;
  util::ThreadPool pool_;  ///< last member: joins before shard state dies
};

}  // namespace aar::core
