#include "overlay/experiment.hpp"

namespace aar::overlay {

Network make_network(const ExperimentConfig& config,
                     const PolicyFactory& factory) {
  util::Rng rng(config.seed);
  Graph graph = make_barabasi_albert(config.nodes, config.attach, rng);
  NetworkConfig net = config.network;
  net.seed = config.seed + 1;
  return Network(net, std::move(graph), factory);
}

QueryDraw draw_query(Network& network, util::Rng& driver) {
  QueryDraw draw;
  draw.origin = static_cast<NodeId>(driver.below(network.num_nodes()));
  draw.target = network.sample_target(draw.origin);
  for (int attempt = 0;
       attempt < 8 && network.store_has(draw.origin, draw.target); ++attempt) {
    draw.target = network.sample_target(draw.origin);
  }
  return draw;
}

void run_queries(Network& network, std::size_t count,
                 const SearchOptions& options, util::Rng& rng,
                 TrafficStats* stats) {
  for (std::size_t i = 0; i < count; ++i) {
    const QueryDraw query = draw_query(network, rng);
    const SearchOutcome outcome =
        network.search(query.origin, query.target, options);
    if (stats == nullptr) continue;
    ++stats->queries;
    if (outcome.hit) {
      ++stats->hits;
      stats->hops.add(static_cast<double>(outcome.hops_to_first_hit));
    }
    if (outcome.used_fallback) ++stats->fallbacks;
    if (outcome.rule_routed) ++stats->rule_routed;
    stats->total_messages.add(static_cast<double>(outcome.total_messages()));
    stats->query_messages.add(static_cast<double>(outcome.query_messages));
    stats->reply_messages.add(static_cast<double>(outcome.reply_messages));
    stats->probe_messages.add(static_cast<double>(outcome.probe_messages));
    stats->nodes_reached.add(static_cast<double>(outcome.nodes_reached));
  }
}

TrafficStats run_experiment(const std::string& label, Network& network,
                            const ExperimentConfig& config) {
  util::Rng rng(config.seed + 2);
  run_queries(network, config.warmup_queries, config.options, rng, nullptr);
  TrafficStats stats;
  stats.policy = label;
  run_queries(network, config.measure_queries, config.options, rng, &stats);
  return stats;
}

}  // namespace aar::overlay
