#include "core/strategy.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "core/sharded_evaluator.hpp"
#include "obs/registry.hpp"

namespace aar::core {

void Strategy::regenerate(Block block) {
  static obs::Timer& build_timer =
      obs::Registry::global().timer("core.ruleset_build");
  const obs::Timer::Scope scope = build_timer.measure();
  // Slide the miner's window to exactly this block: counting the new pairs
  // and retiring the previous window's is incremental work, and the snapshot
  // re-materializes only antecedents whose counts actually changed.
  miner_.add(block);
  miner_.evict_to(block.size());
  miner_.snapshot();
  ++rulesets_generated_;
}

BlockMeasures Strategy::measure(Block block, ShardedEvaluator* sharded) const {
  return sharded != nullptr ? sharded->evaluate(current(), block)
                            : evaluate(current(), block);
}

namespace {
constexpr std::uint64_t pair_key(HostId source, HostId replier) noexcept {
  return (static_cast<std::uint64_t>(source) << 32) | replier;
}
/// Batch-decay stride, in pairs.  Counts are exact at sweep boundaries and at
/// most one stride stale in between — negligible against block-scale dynamics.
constexpr std::uint64_t kDecayStride = 1'000;
/// Entries decayed below this are dropped from the tables.
constexpr double kDropEpsilon = 0.05;
}  // namespace

// ---------------------------------------------------------------- adaptive

double AdaptiveSlidingWindow::threshold_of(const std::vector<double>& window,
                                           double initial) {
  if (window.empty()) return initial;
  const double sum = std::accumulate(window.begin(), window.end(), 0.0);
  return sum / static_cast<double>(window.size());
}

double AdaptiveSlidingWindow::coverage_threshold() const {
  return threshold_scale_ * threshold_of(coverage_history_, initial_threshold_);
}

double AdaptiveSlidingWindow::success_threshold() const {
  return threshold_scale_ * threshold_of(success_history_, initial_threshold_);
}

BlockMeasures AdaptiveSlidingWindow::test(Block block,
                                          ShardedEvaluator* sharded) {
  const double ct = coverage_threshold();
  const double st = success_threshold();
  const BlockMeasures measures = measure(block, sharded);

  auto push = [this](std::vector<double>& window, double value) {
    window.push_back(value);
    if (window.size() > history_) window.erase(window.begin());
  };
  push(coverage_history_, measures.coverage());
  push(success_history_, measures.success());

  if (measures.coverage() < ct || measures.success() < st) {
    regenerate(block);  // refresh from the block that exposed the staleness
  }
  return measures;
}

// ------------------------------------------------------------- prequential

void PrequentialStrategy::bootstrap(Block first_block) {
  for (const QueryReplyPair& pair : first_block) train(pair);
}

bool PrequentialStrategy::host_covered(HostId source) const {
  const auto it = repliers_of_.find(source);
  if (it == repliers_of_.end()) return false;
  return std::any_of(it->second.begin(), it->second.end(),
                     [&](HostId replier) { return rule_active(source, replier); });
}

BlockMeasures PrequentialStrategy::test(Block block, ShardedEvaluator*) {
  // Each pair is tested against the rules as they stood *before* it
  // arrived, then used to update them.
  std::unordered_map<trace::Guid, std::uint8_t> state;
  state.reserve(block.size());
  BlockMeasures measures;
  for (const QueryReplyPair& pair : block) {
    auto [it, fresh] = state.try_emplace(pair.guid, std::uint8_t{0});
    if (fresh) {
      ++measures.total_queries;
      if (host_covered(pair.source_host)) {
        ++measures.covered;
        it->second |= 1;
      }
    }
    if ((it->second & 1) && !(it->second & 2) &&
        rule_active(pair.source_host, pair.replying_neighbor)) {
      ++measures.successful;
      it->second |= 2;
    }
    train(pair);
  }
  return measures;
}

// -------------------------------------------------------------- incremental

IncrementalRuleset::IncrementalRuleset(std::uint32_t min_support,
                                       double half_life_pairs,
                                       double min_effective_support)
    : PrequentialStrategy(min_support), min_effective_(min_effective_support) {
  assert(half_life_pairs > 0.0);
  decay_per_pair_ = std::exp2(-1.0 / half_life_pairs);
}

void IncrementalRuleset::train(const QueryReplyPair& pair) {
  ++pairs_seen_;
  if (pairs_seen_ - pairs_at_last_decay_ >= kDecayStride) decay_all();
  auto [it, fresh] =
      counts_.try_emplace(pair_key(pair.source_host, pair.replying_neighbor), 0.0);
  it->second += 1.0;
  if (fresh) repliers_of_[pair.source_host].push_back(pair.replying_neighbor);
}

void IncrementalRuleset::decay_all() {
  const double factor = std::pow(decay_per_pair_,
                                 static_cast<double>(pairs_seen_ - pairs_at_last_decay_));
  pairs_at_last_decay_ = pairs_seen_;
  for (auto it = counts_.begin(); it != counts_.end();) {
    it->second *= factor;
    it = it->second < kDropEpsilon ? counts_.erase(it) : std::next(it);
  }
  // Rebuild the per-source index from the surviving pairs so departed hosts
  // and dead rules do not accumulate.
  repliers_of_.clear();
  for (const auto& [key, count] : counts_) {
    repliers_of_[static_cast<HostId>(key >> 32)].push_back(
        static_cast<HostId>(key & 0xffffffffu));
  }
}

bool IncrementalRuleset::rule_active(HostId source, HostId replier) const {
  const auto it = counts_.find(pair_key(source, replier));
  return it != counts_.end() && it->second >= min_effective_;
}

std::size_t IncrementalRuleset::active_rules() const {
  return static_cast<std::size_t>(
      std::count_if(counts_.begin(), counts_.end(), [this](const auto& entry) {
        return entry.second >= min_effective_;
      }));
}

// --------------------------------------------------------------- streaming

StreamingRuleset::StreamingRuleset(std::uint32_t min_support, double epsilon,
                                   std::uint64_t epoch_pairs,
                                   double min_effective_support)
    : PrequentialStrategy(min_support),
      min_effective_(min_effective_support),
      epoch_pairs_(epoch_pairs),
      current_(epsilon),
      previous_(epsilon) {
  assert(epoch_pairs_ > 0);
}

std::uint64_t StreamingRuleset::pair_count(HostId source, HostId replier) const {
  const std::uint64_t key = pair_key(source, replier);
  return current_.count(key) + previous_.count(key);
}

void StreamingRuleset::train(const QueryReplyPair& pair) {
  const std::uint64_t key = pair_key(pair.source_host, pair.replying_neighbor);
  const bool fresh = current_.count(key) == 0 && previous_.count(key) == 0;
  current_.add(key);
  if (fresh) repliers_of_[pair.source_host].push_back(pair.replying_neighbor);
  if (++pairs_in_epoch_ >= epoch_pairs_) {
    pairs_in_epoch_ = 0;
    std::swap(current_, previous_);
    current_.clear();
    // Rebuild the per-source index from what survived in `previous_`.
    repliers_of_.clear();
    for (const auto& [k, count] : previous_.frequent(0.0)) {
      repliers_of_[static_cast<HostId>(k >> 32)].push_back(
          static_cast<HostId>(k & 0xffffffffu));
    }
  }
}

}  // namespace aar::core
