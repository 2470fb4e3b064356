#include "core/sharded_evaluator.hpp"

namespace aar::core {

BlockMeasures ShardedEvaluator::evaluate(
    const RuleSet& rules, std::span<const QueryReplyPair> block) {
  for (std::vector<QueryReplyPair>& shard : shard_pairs_) {
    shard.clear();  // keeps capacity: steady state re-partitions in place
  }
  for (const QueryReplyPair& pair : block) {
    shard_pairs_[shard_of(pair.guid, kShards)].push_back(pair);
  }
  for (std::size_t s = 0; s < kShards; ++s) {
    pool_.submit([this, s, &rules] {
      shard_measures_[s] = core::evaluate(rules, shard_pairs_[s]);
    });
  }
  pool_.wait();

  // A GUID lives wholly in one shard, so per-shard (N, n, s) sum exactly.
  BlockMeasures total;
  for (const BlockMeasures& shard : shard_measures_) {
    total.total_queries += shard.total_queries;
    total.covered += shard.covered;
    total.successful += shard.successful;
  }
  return total;
}

}  // namespace aar::core
