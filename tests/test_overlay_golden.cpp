// Frozen overlay-simulator goldens (tests/data/golden_overlay.v1).
//
// The determinism suites compare two runs of the same binary; these tests
// compare one run against bytes written down once, by the message-level
// overlay simulator the engine replaced ("legacy" in the SimDifferential*
// names below).  They cover the differential matrix (association/flooding
// x lossless/faulted, seed 11: outcome stream hash, per-epoch stats,
// timer-free metrics hash, and a hash over every node's RuleSet::save
// bytes), the two seeded fault goldens through run_fault_scenario, a
// reduced bench_n1 policy matrix (all seven rows, random walks included),
// and a flooding overlay with one node switched to a random walk via
// set_policy.  OverlayGolden.* runs the default engine (one thread, one
// shard); SimDifferential* and SimEngineContract.* rerun the same entries
// across thread and shard counts, which must never move a byte.
//
// Regenerate (only when a change is meant to move the bytes): running
//   build/tests/aar_tests --gtest_filter='OverlayGolden.*'
// with AAR_OVERLAY_GOLDEN_OUT=<file> set appends every entry to <file>
// instead of comparing.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/experiment.hpp"
#include "overlay/fault_experiment.hpp"
#include "overlay/hybrid.hpp"
#include "overlay/routing_indices.hpp"
#include "overlay/shortcuts.hpp"
#include "overlay/topology.hpp"
#include "test_golden.hpp"

namespace aar::overlay {
namespace {

using testing::hex;
using testing::nonzero_metrics;

std::string exact(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string metrics_hash() {
  return hex(testing::fnv1a(nonzero_metrics()));
}

/// Checks against (or, with AAR_OVERLAY_GOLDEN_OUT set, appends to)
/// tests/data/golden_overlay.v1.
struct Entries : testing::GoldenEntries {
  Entries() : GoldenEntries("golden_overlay.v1", "AAR_OVERLAY_GOLDEN_OUT") {}
};

void add_run(Entries& entries, const std::string& prefix,
             const FaultRunResult& result) {
  entries.add(prefix + ".outcome_hash", hex(result.outcome_hash));
  entries.add(prefix + ".searches", result.searches);
  entries.add(prefix + ".hits", result.hits);
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const FaultEpochStats& s = result.epochs[e];
    entries.add(prefix + ".epoch" + std::to_string(e),
                std::to_string(s.searches) + ' ' + std::to_string(s.hits) +
                    ' ' + std::to_string(s.timeouts) + ' ' +
                    std::to_string(s.degraded_floods) + ' ' +
                    std::to_string(s.retries) + ' ' +
                    std::to_string(s.dropped) + ' ' +
                    std::to_string(s.messages) + ' ' +
                    std::to_string(s.nodes_reached));
  }
}

// --- differential matrix (seed 11) ----------------------------------------

constexpr std::uint64_t kDiffSeed = 11;

fault::Scenario diff_scenario(const std::string& policy, bool faulted) {
  fault::Scenario scenario;
  scenario.nodes = 300;
  scenario.attach = 3;
  scenario.warmup = 350;
  scenario.queries = 220;
  scenario.epochs = 2;
  scenario.churn = 20;
  scenario.policy = policy;
  scenario.ttl = 5;
  if (!faulted) return scenario;
  // Drops, duplicates, delays, slow/crashed/free-riding peers, a mid-run
  // partition, and the retry ladder with jittered backoff.
  scenario.timeout = 60;
  scenario.retries = 2;
  scenario.backoff = 2;
  scenario.jitter = 2;
  scenario.plan.drop = 0.05;
  scenario.plan.duplicate = 0.02;
  scenario.plan.max_delay = 2;
  scenario.plan.peers.push_back({5, fault::PeerState::crashed});
  scenario.plan.peers.push_back({17, fault::PeerState::slow});
  scenario.plan.peers.push_back({40, fault::PeerState::free_riding});
  fault::FaultEvent crash;
  crash.at = 450;
  crash.kind = fault::FaultEvent::Kind::crash;
  crash.node = 9;
  scenario.schedule.add(crash);
  fault::FaultEvent partition;
  partition.at = 520;
  partition.kind = fault::FaultEvent::Kind::partition;
  partition.pivot = 150;
  scenario.schedule.add(partition);
  fault::FaultEvent heal;
  heal.at = 610;
  heal.kind = fault::FaultEvent::Kind::heal_partition;
  scenario.schedule.add(heal);
  return scenario;
}

NetworkConfig engine(std::size_t threads, std::size_t shards = 0) {
  NetworkConfig config;
  config.threads = threads;
  config.shards = shards;
  return config;
}

void add_diff_cell(Entries& entries, const std::string& policy, bool faulted,
                   const NetworkConfig& config) {
  obs::Registry::global().reset();
  const FaultRunResult result = run_fault_scenario(
      diff_scenario(policy, faulted), kDiffSeed, faulted, config);
  const std::string prefix =
      "diff." + policy + (faulted ? ".faulted" : ".lossless");
  add_run(entries, prefix, result);
  entries.add(prefix + ".metrics_hash", metrics_hash());
}

TEST(OverlayGolden, DifferentialMatrix) {
  Entries entries;
  for (const std::string policy : {"association", "flooding"}) {
    for (const bool faulted : {false, true}) {
      add_diff_cell(entries, policy, faulted, engine(1));
    }
  }
  entries.check();
}

void add_rules(Entries& entries, NetworkConfig config) {
  const fault::Scenario scenario = diff_scenario("association", false);
  util::Rng topo(kDiffSeed);
  Graph graph = make_barabasi_albert(scenario.nodes, scenario.attach, topo);
  config.seed = kDiffSeed + 1;
  Network network(config, std::move(graph),
                  scenario_policy_factory(scenario.policy));
  SearchOptions options;
  options.ttl = scenario.ttl;
  util::Rng driver(kDiffSeed + 2);
  run_queries(network, scenario.warmup, options, driver, nullptr);

  std::ostringstream all;
  for (NodeId node = 0; node < network.num_nodes(); ++node) {
    all << "node " << node << '\n';
    dynamic_cast<AssociationRoutingPolicy&>(network.policy(node))
        .rules()
        .save(all);
  }
  entries.add("rules.association.hash", hex(testing::fnv1a(all.str())));
  entries.add("rules.association.bytes", all.str().size());
}

TEST(OverlayGolden, RuleSetBytes) {
  Entries entries;
  add_rules(entries, engine(1));
  entries.check();
}

// --- seeded fault goldens (seed 7) ----------------------------------------

TEST(OverlayGolden, FaultScenarios) {
  Entries entries;
  for (const std::string name : {"golden_small", "golden_churnstorm"}) {
    const fault::Scenario scenario = fault::load_scenario(
        std::string(AAR_TEST_DATA_DIR) + "/" + name + ".v1");
    for (const bool faulted : {true, false}) {
      obs::Registry::global().reset();
      const FaultRunResult result = run_fault_scenario(scenario, 7, faulted);
      const std::string prefix =
          "scenario." + name + (faulted ? ".faulted" : ".lossless");
      add_run(entries, prefix, result);
      entries.add(prefix + ".metrics_hash", metrics_hash());
    }
  }
  entries.check();
}

// --- reduced bench_n1 policy matrix (seed 17) -----------------------------

ExperimentConfig n1_config(std::size_t threads = 1) {
  ExperimentConfig config;
  config.network.threads = threads;
  config.seed = 17;
  config.nodes = 300;
  config.attach = 3;
  config.warmup_queries = 500;
  config.measure_queries = 500;
  return config;
}

std::string running(const util::Running& r) {
  return std::to_string(r.count()) + ' ' + exact(r.mean()) + ' ' +
         exact(r.variance()) + ' ' + exact(r.min()) + ' ' + exact(r.max());
}

void add_traffic(Entries& entries, const std::string& prefix,
                 const TrafficStats& s) {
  entries.add(prefix + ".counts",
              std::to_string(s.queries) + ' ' + std::to_string(s.hits) + ' ' +
                  std::to_string(s.fallbacks) + ' ' +
                  std::to_string(s.rule_routed));
  entries.add(prefix + ".total_messages", running(s.total_messages));
  entries.add(prefix + ".query_messages", running(s.query_messages));
  entries.add(prefix + ".reply_messages", running(s.reply_messages));
  entries.add(prefix + ".probe_messages", running(s.probe_messages));
  entries.add(prefix + ".nodes_reached", running(s.nodes_reached));
  entries.add(prefix + ".hops", running(s.hops));
  entries.add(prefix + ".metrics_hash", metrics_hash());
}

template <typename Policy, typename... Args>
PolicyFactory every_node(Args... args) {
  return [=](NodeId) { return std::make_unique<Policy>(args...); };
}

void run_n1_row(Entries& entries, const std::string& name,
                const ExperimentConfig& config, const PolicyFactory& factory) {
  obs::Registry::global().reset();
  Network net = make_network(config, factory);
  add_traffic(entries, "n1." + name, run_experiment(name, net, config));
}

TEST(OverlayGolden, N1Flooding) {
  Entries entries;
  run_n1_row(entries, "flooding", n1_config(), every_node<FloodingPolicy>());
  ExperimentConfig ring = n1_config();
  ring.options.mode = SearchMode::kExpandingRing;
  run_n1_row(entries, "expanding_ring", ring, every_node<FloodingPolicy>());
  entries.check();
}

void add_random_walk(Entries& entries, std::size_t threads) {
  ExperimentConfig walk = n1_config(threads);
  walk.options.ttl = 512;
  run_n1_row(entries, "random_walk_32", walk,
             every_node<KRandomWalkPolicy>(std::size_t{32}));
}

TEST(OverlayGolden, N1RandomWalk) {
  Entries entries;
  add_random_walk(entries, 1);
  entries.check();
}

TEST(OverlayGolden, N1Learned) {
  Entries entries;
  run_n1_row(entries, "shortcuts", n1_config(),
             every_node<InterestShortcutsPolicy>());
  run_n1_row(entries, "association", n1_config(),
             every_node<AssociationRoutingPolicy>());
  run_n1_row(entries, "hybrid", n1_config(),
             every_node<HybridShortcutsAssociationPolicy>());
  entries.check();
}

TEST(OverlayGolden, N1RoutingIndicesViaSetPolicy) {
  const ExperimentConfig config = n1_config();
  obs::Registry::global().reset();
  Network net = make_network(config, every_node<FloodingPolicy>());
  auto table = std::make_shared<RoutingIndexTable>(
      net.graph(), local_document_counts(net), 4, 0.5);
  for (NodeId n = 0; n < net.num_nodes(); ++n) {
    net.set_policy(n, std::make_unique<RoutingIndicesPolicy>(
                          table, RoutingIndicesConfig{}));
  }
  Entries entries;
  add_traffic(entries, "n1.routing_indices",
              run_experiment("routing indices", net, config));
  entries.check();
}

// --- one walker in a flooding overlay (set_policy) ------------------------

void add_mixed(Entries& entries, std::size_t threads) {
  ExperimentConfig config = n1_config(threads);
  config.warmup_queries = 200;
  config.measure_queries = 300;
  config.options.ttl = 5;
  obs::Registry::global().reset();
  Network net = make_network(config, every_node<FloodingPolicy>());
  // Node 0 is the Barabasi-Albert seed hub, so most floods pass through it
  // more than once: its walk policy forwards every revisit.
  net.set_policy(0, std::make_unique<KRandomWalkPolicy>(2));
  add_traffic(entries, "mixed.walk_hub",
              run_experiment("mixed", net, config));

  std::vector<std::uint8_t> bytes;
  SearchOptions options;
  options.ttl = 5;
  for (int i = 0; i < 100; ++i) {
    const workload::FileId target = net.sample_target(0);
    append_outcome(bytes, net.search(0, target, options));
  }
  entries.add("mixed.walk_origin.outcome_hash", hex(overlay::fnv1a(bytes)));
}

TEST(OverlayGolden, MixedWalkNodeViaSetPolicy) {
  Entries entries;
  add_mixed(entries, 1);
  entries.check();
}

// --- thread and shard invariance against the same goldens -----------------

// The policy is a std::string, not a const char*: gtest prints a const char*
// with its address, which would make the discovered ctest names change with
// every build.
class SimDifferential
    : public ::testing::TestWithParam<std::pair<std::string, bool>> {};

TEST_P(SimDifferential, EngineMatchesLegacyForAllThreadCounts) {
  const auto [policy, faulted] = GetParam();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Entries entries;
    add_diff_cell(entries, policy, faulted, engine(threads));
    entries.check();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SimDifferential,
    ::testing::Values(std::make_pair("association", false),
                      std::make_pair("association", true),
                      std::make_pair("flooding", false),
                      std::make_pair("flooding", true)));

TEST(SimDifferentialShards, ShardCountNeverChangesOutcomes) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{3},
                                   std::size_t{8}, std::size_t{64}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Entries entries;
    add_diff_cell(entries, "association", /*faulted=*/true,
                  engine(shards == 1 ? 1 : 2, shards));
    entries.check();
  }
}

TEST(SimDifferentialShards, EngineMetricsFamilyIsThreadInvariant) {
  const auto snapshot = [](std::size_t threads) {
    NetworkConfig config = engine(threads);
    config.engine_metrics = true;
    obs::Registry::global().reset();
    (void)run_fault_scenario(diff_scenario("association", false), kDiffSeed,
                             false, config);
    return nonzero_metrics();
  };
  const std::string first = snapshot(1);
  EXPECT_EQ(first, snapshot(8));
  EXPECT_NE(first.find("sim.engine.searches"), std::string::npos);
}

TEST(SimDifferentialRules, RuleSetBytesMatchLegacy) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Entries entries;
    add_rules(entries, engine(threads));
    entries.check();
  }
}

// Random walks take the serial revisit path whatever the thread count.
TEST(SimEngineContract, WalkPolicyMatchesGoldenAtThreads1And8) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Entries entries;
    add_random_walk(entries, threads);
    add_mixed(entries, threads);
    entries.check();
  }
}

}  // namespace
}  // namespace aar::overlay
