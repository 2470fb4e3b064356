#pragma once
// Workload driver for overlay experiments: builds a network, issues
// interest-driven queries (warm-up first so learning policies converge),
// and aggregates per-policy traffic statistics.  Benches N1/N2/A1 and the
// file_sharing example are thin wrappers over this.

#include <cstdint>
#include <string>

#include "overlay/network.hpp"
#include "overlay/topology.hpp"
#include "util/stats.hpp"

namespace aar::overlay {

struct ExperimentConfig {
  std::uint64_t seed = 7;
  std::size_t nodes = 2'000;
  std::size_t attach = 3;            ///< Barabási–Albert attachment degree
  std::size_t warmup_queries = 5'000;
  std::size_t measure_queries = 5'000;
  NetworkConfig network{};
  SearchOptions options{};
};

/// Aggregated outcome of a measured query batch.
struct TrafficStats {
  std::string policy;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t rule_routed = 0;
  util::Running total_messages;
  util::Running query_messages;
  util::Running reply_messages;
  util::Running probe_messages;
  util::Running nodes_reached;
  util::Running hops;  ///< hops to first hit, successful queries only

  [[nodiscard]] double success_rate() const noexcept {
    return queries == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(queries);
  }
  [[nodiscard]] double fallback_rate() const noexcept {
    return queries == 0
               ? 0.0
               : static_cast<double>(fallbacks) / static_cast<double>(queries);
  }
  [[nodiscard]] double rule_routed_rate() const noexcept {
    return queries == 0
               ? 0.0
               : static_cast<double>(rule_routed) / static_cast<double>(queries);
  }
};

/// Build a connected Barabási–Albert network with one policy everywhere.
[[nodiscard]] Network make_network(const ExperimentConfig& config,
                                   const PolicyFactory& factory);

/// One interest-driven query: where it starts and what it asks for.
struct QueryDraw {
  NodeId origin = kNoNode;
  workload::FileId target = workload::kNoFile;
};

/// Draw one query: a uniform origin from `driver`, then a target from the
/// origin's interests (network stream), re-sampled up to 8 times while the
/// origin already stores it — users do not search for what they have.
/// Every workload driver draws through here, so one seed means one query
/// stream everywhere.
[[nodiscard]] QueryDraw draw_query(Network& network, util::Rng& driver);

/// Issue `count` queries from draw_query.  Aggregates into `stats` unless
/// it is null (warm-up mode).
void run_queries(Network& network, std::size_t count,
                 const SearchOptions& options, util::Rng& rng,
                 TrafficStats* stats);

/// Full experiment: warm-up then measurement.  `label` names the row.
[[nodiscard]] TrafficStats run_experiment(const std::string& label,
                                          Network& network,
                                          const ExperimentConfig& config);

}  // namespace aar::overlay
