#pragma once
// Rule-set maintenance strategies (paper Sections III-B.3 – III-B.6 plus the
// Section VI streaming extension).
//
// run_trace_simulation replays the trace in blocks.  Block 0 is the
// bootstrap block every strategy may mine; each later block is first
// *tested* against the strategy's current rule set (producing the coverage /
// success measures) and then offered to the strategy, which decides whether
// to regenerate.  This matches the paper's RULESET-TEST / GENERATE-RULESET
// pseudocode: Sliding Window regenerates after every block, Lazy every P
// blocks, Adaptive only when the measured quality drops below its adaptive
// thresholds.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/measures.hpp"
#include "core/ruleset.hpp"
#include "mining/incremental_miner.hpp"
#include "mining/lossy_counter.hpp"

namespace aar::core {

using Block = std::span<const QueryReplyPair>;

class ShardedEvaluator;  // core/sharded_evaluator.hpp

class Strategy {
 public:
  explicit Strategy(std::uint32_t min_support)
      : miner_(mining::MinerConfig{.window = 0, .min_support = min_support}) {}
  virtual ~Strategy() = default;

  Strategy(const Strategy&) = delete;
  Strategy& operator=(const Strategy&) = delete;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once with block 0 before any testing.  Default: mine it.
  virtual void bootstrap(Block first_block) { regenerate(first_block); }

  /// Test the current rule set against `block`, then apply the strategy's
  /// update policy.  Returns the measures of the *test* (before any update).
  /// A non-null `sharded` spreads the rule-set evaluation over its worker
  /// pool; the measures are identical either way.
  BlockMeasures test_block(Block block, ShardedEvaluator* sharded = nullptr) {
    return test(block, sharded);
  }

  /// Rule sets mined so far (bootstrap included) — the paper reports
  /// "new rule sets were generated every 1.7 blocks" from this counter.
  [[nodiscard]] std::uint64_t rulesets_generated() const noexcept {
    return rulesets_generated_;
  }
  [[nodiscard]] const RuleSet& current_ruleset() const noexcept {
    return miner_.ruleset();
  }
  [[nodiscard]] std::uint32_t min_support() const noexcept {
    return miner_.config().min_support;
  }

 protected:
  /// test_block's body: one step of the strategy's test-then-update policy.
  virtual BlockMeasures test(Block block, ShardedEvaluator* sharded) = 0;

  /// Refresh the rule set from `block` through the shared incremental miner:
  /// the block's pairs slide into the miner's window (evicting the previous
  /// window's pairs) and a snapshot materializes only the antecedents whose
  /// counts changed.  Produces exactly RuleSet::build(block, min_support).
  /// Timed under obs "core.ruleset_build".
  void regenerate(Block block);

  /// Evaluate the current rule set against `block` — on `sharded`'s pool
  /// when given, inline otherwise.  Byte-identical either way.
  [[nodiscard]] BlockMeasures measure(Block block,
                                      ShardedEvaluator* sharded) const;

  /// The rule set from the most recent regenerate() (empty before the first).
  [[nodiscard]] const RuleSet& current() const noexcept {
    return miner_.ruleset();
  }

 private:
  mining::IncrementalRuleMiner miner_;
  std::uint64_t rulesets_generated_ = 0;
};

/// STATIC-RULESET (III-B.3): mine once from block 0, never refresh.
class StaticRuleset final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "static"; }

 private:
  BlockMeasures test(Block block, ShardedEvaluator* sharded) override {
    return measure(block, sharded);
  }
};

/// SLIDING-WINDOW (III-B.4): every block b is tested against the rule set
/// mined from block b-1.
class SlidingWindow final : public Strategy {
 public:
  using Strategy::Strategy;
  [[nodiscard]] std::string name() const override { return "sliding"; }

 private:
  BlockMeasures test(Block block, ShardedEvaluator* sharded) override {
    const BlockMeasures measures = measure(block, sharded);
    regenerate(block);  // becomes the rule set for block b+1
    return measures;
  }
};

/// LAZY-SLIDING-WINDOW (III-B.5): regenerate only after the rule set has
/// been used for `period` blocks.
class LazySlidingWindow final : public Strategy {
 public:
  LazySlidingWindow(std::uint32_t min_support, std::uint32_t period)
      : Strategy(min_support), period_(period) {}
  [[nodiscard]] std::string name() const override {
    return "lazy(" + std::to_string(period_) + ")";
  }
  [[nodiscard]] std::uint32_t period() const noexcept { return period_; }

 private:
  BlockMeasures test(Block block, ShardedEvaluator* sharded) override {
    const BlockMeasures measures = measure(block, sharded);
    if (++used_ >= period_) {
      regenerate(block);
      used_ = 0;
    }
    return measures;
  }

  std::uint32_t period_;
  std::uint32_t used_ = 0;
};

/// ADAPTIVE-SLIDING-WINDOW (III-B.6): regenerate when measured coverage or
/// success falls below thresholds that track the mean of the previous
/// `history` measured values (initialized to `initial_threshold`, the
/// paper's 0.7, until history accumulates).  `threshold_scale` leaves a
/// small tolerance band under the running mean — with scale 1.0 roughly
/// every other block dips below its own mean and the strategy degenerates
/// toward Sliding Window.
class AdaptiveSlidingWindow final : public Strategy {
 public:
  AdaptiveSlidingWindow(std::uint32_t min_support, std::size_t history,
                        double initial_threshold = 0.7,
                        double threshold_scale = 0.985)
      : Strategy(min_support),
        history_(history),
        initial_threshold_(initial_threshold),
        threshold_scale_(threshold_scale) {}

  [[nodiscard]] std::string name() const override {
    return "adaptive(N=" + std::to_string(history_) + ")";
  }

  /// Thresholds that would be applied to the next block (tests/inspection).
  [[nodiscard]] double coverage_threshold() const;
  [[nodiscard]] double success_threshold() const;

 private:
  BlockMeasures test(Block block, ShardedEvaluator* sharded) override;
  [[nodiscard]] static double threshold_of(const std::vector<double>& window,
                                           double initial);

  std::size_t history_;
  double initial_threshold_;
  double threshold_scale_;
  std::vector<double> coverage_history_;
  std::vector<double> success_history_;
};

/// Shared shape of the Section VI streaming strategies: no mined rule set —
/// counts are updated per pair, so the rules are always current, and
/// evaluation is prequential (each pair is tested against the rules as they
/// stood before it arrived, then trains them).
class PrequentialStrategy : public Strategy {
 public:
  using Strategy::Strategy;
  /// Warm the counts with the bootstrap block.
  void bootstrap(Block first_block) override;

 protected:
  /// Count one pair into the strategy's tables.
  virtual void train(const QueryReplyPair& pair) = 0;
  [[nodiscard]] virtual bool rule_active(HostId source,
                                         HostId replier) const = 0;

  // Per-source index of the repliers seen for that source (kept small by
  // each strategy's sweep) so the coverage test never scans the whole pair
  // table.
  std::unordered_map<HostId, std::vector<HostId>> repliers_of_;

 private:
  BlockMeasures test(Block block, ShardedEvaluator* sharded) final;
  [[nodiscard]] bool host_covered(HostId source) const;
};

/// Streaming extension (Section VI) with exponential decay.  The paper
/// reports α, ρ consistently above 0.90 for this approach.
class IncrementalRuleset final : public PrequentialStrategy {
 public:
  /// `half_life_pairs`: decayed count halves every this many pairs.
  /// `min_effective_support`: decayed count needed for a rule to be active.
  IncrementalRuleset(std::uint32_t min_support, double half_life_pairs = 10'000.0,
                     double min_effective_support = 2.5);

  [[nodiscard]] std::string name() const override { return "incremental"; }

  [[nodiscard]] std::size_t active_rules() const;

 private:
  void train(const QueryReplyPair& pair) override;
  [[nodiscard]] bool rule_active(HostId source, HostId replier) const override;
  void decay_all();

  double decay_per_pair_;
  double min_effective_;
  std::uint64_t pairs_seen_ = 0;
  std::uint64_t pairs_at_last_decay_ = 0;
  // (source<<32 | replier) -> decayed count.
  std::unordered_map<std::uint64_t, double> counts_;
};

/// Streaming variant built on Lossy Counting (Manku & Motwani) instead of
/// exponential decay — the bounded-memory realization of the Section VI
/// pointer to data-stream mining [18].  Two counters rotate every
/// `epoch_pairs` items; a rule is active when its combined estimated count
/// over the current and previous epoch reaches `min_effective_support`.
class StreamingRuleset final : public PrequentialStrategy {
 public:
  StreamingRuleset(std::uint32_t min_support, double epsilon = 1e-3,
                   std::uint64_t epoch_pairs = 10'000,
                   double min_effective_support = 3.0);

  [[nodiscard]] std::string name() const override { return "streaming"; }

  /// Entries currently held across both counters (memory footprint probe).
  [[nodiscard]] std::size_t table_size() const {
    return current_.table_size() + previous_.table_size();
  }

 private:
  void train(const QueryReplyPair& pair) override;
  [[nodiscard]] std::uint64_t pair_count(HostId source, HostId replier) const;
  [[nodiscard]] bool rule_active(HostId source, HostId replier) const override {
    return pair_count(source, replier) >=
           static_cast<std::uint64_t>(min_effective_);
  }

  double min_effective_;
  std::uint64_t epoch_pairs_;
  std::uint64_t pairs_in_epoch_ = 0;
  mining::LossyCounter current_;
  mining::LossyCounter previous_;
};

}  // namespace aar::core
