// Integration tests over the full overlay stack: network construction,
// warm-up, measurement, and the paper's headline traffic claim.

#include "overlay/assoc_policy.hpp"
#include "overlay/experiment.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace aar::overlay {
namespace {

ExperimentConfig small_experiment() {
  ExperimentConfig config;
  config.seed = 11;
  config.nodes = 400;
  config.attach = 3;
  config.warmup_queries = 1'200;
  config.measure_queries = 1'200;
  config.network.files_per_node = 16;
  config.network.content.files = 4'000;
  config.network.content.categories = 32;
  return config;
}

TEST(Experiment, NetworkConstructionIsSound) {
  const auto config = small_experiment();
  Network net = make_network(
      config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  EXPECT_EQ(net.num_nodes(), config.nodes);
  EXPECT_TRUE(net.graph().is_connected());
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    EXPECT_GT(net.store_size(n), 0u);
    EXPECT_EQ(net.profile(n).breadth(), config.network.interest_breadth);
  }
}

TEST(Experiment, StatsAreInternallyConsistent) {
  const auto config = small_experiment();
  Network net = make_network(
      config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  const TrafficStats stats = run_experiment("flooding", net, config);
  EXPECT_EQ(stats.queries, config.measure_queries);
  EXPECT_LE(stats.hits, stats.queries);
  EXPECT_GE(stats.success_rate(), 0.0);
  EXPECT_LE(stats.success_rate(), 1.0);
  EXPECT_EQ(stats.hops.count(), stats.hits);
  EXPECT_EQ(stats.total_messages.count(), stats.queries);
  // Flooding never rule-routes and never falls back.
  EXPECT_EQ(stats.rule_routed, 0u);
  EXPECT_EQ(stats.fallbacks, 0u);
}

TEST(Experiment, FloodingFindsMostContent) {
  const auto config = small_experiment();
  Network net = make_network(
      config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  const TrafficStats stats = run_experiment("flooding", net, config);
  // TTL 7 over a 400-node BA graph reaches everyone; only queries for
  // content with zero replicas miss.
  EXPECT_GT(stats.success_rate(), 0.7);
  EXPECT_NEAR(stats.nodes_reached.mean(), 400.0, 20.0);
}

// The paper's headline: association routing cuts traffic dramatically while
// keeping result quality, because flooding remains the fallback.
TEST(Experiment, AssociationRoutingBeatsFloodingOnTraffic) {
  const auto config = small_experiment();
  Network flood_net = make_network(
      config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  const TrafficStats flooding = run_experiment("flooding", flood_net, config);

  Network assoc_net = make_network(config, [](NodeId) {
    return std::make_unique<AssociationRoutingPolicy>();
  });
  const TrafficStats assoc = run_experiment("association", assoc_net, config);

  // At least 25% query-traffic reduction on this workload...
  EXPECT_LT(assoc.query_messages.mean(), 0.75 * flooding.query_messages.mean());
  // ...with success within 3 points of flooding (fallback catches misses).
  EXPECT_GT(assoc.success_rate(), flooding.success_rate() - 0.03);
  // And rules actually fire.
  EXPECT_GT(assoc.rule_routed_rate(), 0.05);
}

TEST(Experiment, PartialAdoptionStillHelps) {
  const auto config = small_experiment();
  // 50% of nodes adopt association routing, the rest flood (the paper's
  // incremental-deployment story, Section III-B).
  Network mixed = make_network(config, [](NodeId node) -> std::unique_ptr<RoutingPolicy> {
    if (node % 2 == 0) return std::make_unique<AssociationRoutingPolicy>();
    return std::make_unique<FloodingPolicy>();
  });
  const TrafficStats mixed_stats = run_experiment("mixed", mixed, config);

  Network flood_net = make_network(
      config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  const TrafficStats flooding = run_experiment("flooding", flood_net, config);

  EXPECT_LT(mixed_stats.query_messages.mean(), flooding.query_messages.mean());
  EXPECT_GT(mixed_stats.success_rate(), flooding.success_rate() - 0.05);
}

TEST(Experiment, WalksTradeMessagesForLatency) {
  auto config = small_experiment();
  config.options.ttl = 256;
  Network walk_net = make_network(
      config, [](NodeId) { return std::make_unique<KRandomWalkPolicy>(16); });
  const TrafficStats walks = run_experiment("k-rw", walk_net, config);

  auto flood_config = small_experiment();
  Network flood_net = make_network(
      flood_config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
  const TrafficStats flooding =
      run_experiment("flooding", flood_net, flood_config);

  EXPECT_LT(walks.query_messages.mean(), flooding.query_messages.mean());
  EXPECT_GT(walks.hops.mean(), flooding.hops.mean());
}

TEST(Experiment, DeterministicGivenSeed) {
  const auto config = small_experiment();
  auto run_once = [&config] {
    Network net = make_network(
        config, [](NodeId) { return std::make_unique<FloodingPolicy>(); });
    return run_experiment("flooding", net, config);
  };
  const TrafficStats a = run_once();
  const TrafficStats b = run_once();
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_DOUBLE_EQ(a.query_messages.mean(), b.query_messages.mean());
}

}  // namespace
}  // namespace aar::overlay
