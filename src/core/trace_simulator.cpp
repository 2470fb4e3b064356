#include "core/trace_simulator.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/sharded_evaluator.hpp"
#include "obs/registry.hpp"

namespace aar::core {

std::string SimulationResult::to_string() const {
  std::ostringstream os;
  os.precision(3);
  os.setf(std::ios::fixed);
  os << strategy << ": blocks=" << blocks_tested << " avg_coverage="
     << avg_coverage() << " avg_success=" << avg_success()
     << " rulesets=" << rulesets_generated
     << " blocks/regen=" << blocks_per_generation();
  return os.str();
}

SimulationResult run_trace_simulation(Strategy& strategy,
                                      std::span<const trace::QueryReplyPair> pairs,
                                      std::size_t block_size,
                                      std::size_t threads) {
  // These used to be assert-only, so a Release build fed a short or empty
  // trace bootstrapped on an empty span and returned a zero-block result
  // without complaint.  Fail loudly in every build type instead.
  if (block_size == 0) {
    throw std::invalid_argument(
        "run_trace_simulation: block_size must be positive");
  }
  if (pairs.size() / block_size < 2) {
    throw std::runtime_error(
        "run_trace_simulation: trace too short: " +
        std::to_string(pairs.size()) + " pairs at block size " +
        std::to_string(block_size) +
        " (need a bootstrap block plus at least one test block)");
  }
  trace::SpanBlockSource source(pairs);
  return run_trace_simulation(strategy, source, block_size, threads);
}

SimulationResult run_trace_simulation(Strategy& strategy,
                                      trace::BlockSource& source,
                                      std::size_t block_size,
                                      std::size_t threads) {
  if (block_size == 0) {
    throw std::invalid_argument(
        "run_trace_simulation: block_size must be positive");
  }

  // Bound once; bumped per block (obs lookups never sit on the pair path).
  auto& registry = obs::Registry::global();
  static obs::Timer& bootstrap_timer = registry.timer("sim.bootstrap");
  static obs::Timer& eval_timer = registry.timer("sim.block_eval");
  static obs::Counter& blocks_tested = registry.counter("sim.blocks_tested");
  static obs::Counter& pairs_processed =
      registry.counter("sim.pairs_processed");
  static obs::Counter& regenerations = registry.counter("sim.regenerations");
  static obs::Gauge& ruleset_size = registry.gauge("sim.ruleset_size");

  SimulationResult result;
  result.strategy = strategy.name();
  result.block_size = block_size;
  result.min_support = strategy.min_support();

  const std::span<const trace::QueryReplyPair> first =
      source.next_block(block_size);
  if (first.empty()) {
    throw std::runtime_error(
        "run_trace_simulation: source yielded no bootstrap block (trace "
        "shorter than one block of " +
        std::to_string(block_size) + ")");
  }
  {
    const obs::Timer::Scope scope = bootstrap_timer.measure();
    strategy.bootstrap(first);
  }
  pairs_processed.add(first.size());
  ruleset_size.set(
      static_cast<double>(strategy.current_ruleset().num_rules()));

  // Only test-block evaluation fans out; at one thread there is no pool.
  std::optional<ShardedEvaluator> pool;
  if (threads != 1) pool.emplace(threads);
  ShardedEvaluator* const sharded = pool ? &*pool : nullptr;

  while (true) {
    const std::span<const trace::QueryReplyPair> block =
        source.next_block(block_size);
    if (block.empty()) break;
    const std::uint64_t regens_before = strategy.rulesets_generated();
    const auto start = std::chrono::steady_clock::now();
    const BlockMeasures measures = strategy.test_block(block, sharded);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    eval_timer.record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    result.eval_seconds.add(std::chrono::duration<double>(elapsed).count());
    result.coverage.add(measures.coverage());
    result.success.add(measures.success());
    ++result.blocks_tested;
    blocks_tested.add(1);
    pairs_processed.add(block.size());
    regenerations.add(strategy.rulesets_generated() - regens_before);
    ruleset_size.set(
        static_cast<double>(strategy.current_ruleset().num_rules()));
  }
  if (result.blocks_tested == 0) {
    throw std::runtime_error(
        "run_trace_simulation: source yielded no test block (need a "
        "bootstrap block plus at least one test block of " +
        std::to_string(block_size) + ")");
  }
  result.rulesets_generated = strategy.rulesets_generated();
  return result;
}

}  // namespace aar::core
