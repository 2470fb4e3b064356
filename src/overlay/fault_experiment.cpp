#include "overlay/fault_experiment.hpp"

#include <memory>
#include <stdexcept>

#include "overlay/assoc_policy.hpp"
#include "overlay/shortcuts.hpp"
#include "overlay/topology.hpp"

namespace aar::overlay {

namespace {

void put_u8(std::vector<std::uint8_t>& out, std::uint8_t v) { out.push_back(v); }

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>(v >> shift));
  }
}

}  // namespace

void append_outcome(std::vector<std::uint8_t>& out, const SearchOutcome& o) {
  put_u8(out, o.hit ? 1 : 0);
  put_u8(out, o.timed_out ? 1 : 0);
  put_u8(out, o.degraded_to_flood ? 1 : 0);
  put_u8(out, o.used_fallback ? 1 : 0);
  put_u8(out, o.rule_routed ? 1 : 0);
  put_u32(out, o.hops_to_first_hit);
  put_u32(out, o.replicas_found);
  put_u32(out, o.nodes_reached);
  put_u32(out, o.retries_used);
  put_u64(out, o.query_messages);
  put_u64(out, o.reply_messages);
  put_u64(out, o.probe_messages);
  put_u64(out, o.dropped_messages);
  put_u64(out, o.elapsed_stamps);
  put_u32(out, static_cast<std::uint32_t>(o.retry_stamps.size()));
  for (std::uint64_t stamp : o.retry_stamps) put_u64(out, stamp);
}

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 1099511628211ULL;
  }
  return hash;
}

PolicyFactory scenario_policy_factory(const std::string& name) {
  if (name == "flooding") {
    return [](NodeId) { return std::make_unique<FloodingPolicy>(); };
  }
  if (name == "shortcuts") {
    return [](NodeId) { return std::make_unique<InterestShortcutsPolicy>(); };
  }
  if (name == "association") {
    return [](NodeId) { return std::make_unique<AssociationRoutingPolicy>(); };
  }
  throw std::runtime_error("unknown scenario policy: " + name);
}

FaultRunResult run_fault_scenario(const fault::Scenario& scenario,
                                  std::uint64_t seed, bool faulted,
                                  NetworkConfig network_config) {
  const PolicyFactory factory = scenario_policy_factory(scenario.policy);

  // Seeding mirrors make_network / run_experiment exactly: topology from
  // `seed`, the network's workload rng from `seed + 1`, the query driver
  // from `seed + 2`.  The fault rng is split from `seed` inside the
  // injector, so the faulted and lossless runs share topology, stores, and
  // the query stream bit for bit.
  util::Rng topo_rng(seed);
  Graph graph = make_barabasi_albert(scenario.nodes, scenario.attach, topo_rng);
  network_config.seed = seed + 1;
  Network network(network_config, std::move(graph), factory);
  if (faulted) {
    network.install_faults(std::make_unique<fault::FaultInjector>(
        scenario.plan, scenario.schedule, seed, scenario.nodes));
  }

  SearchOptions options;
  options.ttl = scenario.ttl;
  options.timeout_stamps = scenario.timeout;
  options.max_retries = scenario.retries;
  options.backoff_base = scenario.backoff;
  options.backoff_jitter = scenario.jitter;
  options.widen_per_retry = scenario.widen;

  util::Rng driver(seed + 2);
  run_queries(network, scenario.warmup, options, driver, nullptr);

  FaultRunResult result;
  result.epochs.reserve(scenario.epochs);
  for (std::size_t epoch = 0; epoch < scenario.epochs; ++epoch) {
    FaultEpochStats stats;
    for (std::size_t q = 0; q < scenario.queries; ++q) {
      // draw_query, like run_queries, so warm-up and measurement are one
      // continuous stream over the driver rng.
      const QueryDraw query = draw_query(network, driver);
      const SearchOutcome outcome =
          network.search(query.origin, query.target, options);
      ++stats.searches;
      if (outcome.hit) ++stats.hits;
      if (outcome.timed_out) ++stats.timeouts;
      if (outcome.degraded_to_flood) ++stats.degraded_floods;
      stats.retries += outcome.retries_used;
      stats.dropped += outcome.dropped_messages;
      stats.messages += outcome.total_messages();
      stats.nodes_reached += outcome.nodes_reached;
      append_outcome(result.outcome_bytes, outcome);
    }
    result.searches += stats.searches;
    result.hits += stats.hits;
    result.epochs.push_back(stats);
    if (epoch + 1 < scenario.epochs && scenario.churn > 0) {
      network.churn(scenario.churn, scenario.attach);
    }
  }
  result.outcome_hash = fnv1a(result.outcome_bytes);
  return result;
}

}  // namespace aar::overlay
