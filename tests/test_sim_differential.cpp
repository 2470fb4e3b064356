// Differential determinism suite for the discrete-event engine
// (docs/SIMULATION.md): aar::sim::Engine must reproduce the legacy
// overlay::Network bit for bit on small topologies — SearchOutcome byte
// streams, per-node RuleSet bytes, and (timer-scrubbed) aar.metrics.v1
// snapshots — and must itself be byte-identical across thread counts
// {1, 2, 8} and across shard counts, faulted scenarios included.

#include "sim/compat.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "overlay/assoc_policy.hpp"
#include "overlay/fault_experiment.hpp"
#include "overlay/network.hpp"
#include "overlay/topology.hpp"
#include "sim/engine.hpp"

namespace aar::sim {
namespace {

constexpr std::uint64_t kSeed = 11;

fault::Scenario base_scenario(const std::string& policy) {
  fault::Scenario scenario;
  scenario.nodes = 300;
  scenario.attach = 3;
  scenario.warmup = 350;
  scenario.queries = 220;
  scenario.epochs = 2;
  scenario.churn = 20;
  scenario.policy = policy;
  scenario.ttl = 5;
  return scenario;
}

fault::Scenario faulted_scenario(const std::string& policy) {
  // Exercises every order-sensitive path at once: drops, duplicates,
  // delays (out-of-FIFO arrival order), slow/crashed/free-riding peers, a
  // mid-run partition, and the retry ladder with jittered backoff.
  fault::Scenario scenario = base_scenario(policy);
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

/// Drop "sim.engine.*" counter entries from a metrics snapshot so a legacy
/// run and an engine run compare equal even when some earlier test already
/// registered the engine family in this process (registry keys are
/// permanent).  Applied to both sides; a no-op when the family is absent.
std::string scrub_engine_family(std::string json) {
  static const std::regex trailing("\"sim\\.engine\\.[^\"]*\":[^,}]*,");
  static const std::regex leading(",?\"sim\\.engine\\.[^\"]*\":[^,}]*");
  json = std::regex_replace(json, trailing, "");
  return std::regex_replace(json, leading, "");
}

struct Capture {
  overlay::FaultRunResult result;
  std::string metrics;
};

Capture capture_legacy(const fault::Scenario& scenario, bool faulted) {
  obs::Registry::global().reset();
  Capture capture;
  capture.result = overlay::run_fault_scenario(scenario, kSeed, faulted);
  std::ostringstream json;
  obs::Registry::global().write_json(json, {}, /*include_timers=*/false);
  capture.metrics = scrub_engine_family(json.str());
  return capture;
}

Capture capture_engine(const fault::Scenario& scenario, bool faulted,
                       std::size_t threads, std::size_t shards = 0,
                       bool engine_metrics = false) {
  obs::Registry::global().reset();
  Capture capture;
  EngineRunOptions options;
  options.threads = threads;
  options.shards = shards;
  options.engine_metrics = engine_metrics;
  capture.result = run_engine_scenario(scenario, kSeed, faulted, options);
  std::ostringstream json;
  obs::Registry::global().write_json(json, {}, /*include_timers=*/false);
  capture.metrics = scrub_engine_family(json.str());
  return capture;
}

// The policy is a std::string, not a const char*: gtest prints a const char*
// with its address, which would make the discovered ctest names change with
// every build.
class SimDifferential
    : public ::testing::TestWithParam<std::pair<std::string, bool>> {};

TEST_P(SimDifferential, EngineMatchesLegacyForAllThreadCounts) {
  const auto [policy, faulted] = GetParam();
  const fault::Scenario scenario =
      faulted ? faulted_scenario(policy) : base_scenario(policy);
  const Capture legacy = capture_legacy(scenario, faulted);
  ASSERT_FALSE(legacy.result.outcome_bytes.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const Capture engine = capture_engine(scenario, faulted, threads);
    EXPECT_EQ(engine.result.outcome_bytes, legacy.result.outcome_bytes)
        << policy << " threads=" << threads;
    EXPECT_EQ(engine.result.outcome_hash, legacy.result.outcome_hash);
    EXPECT_EQ(engine.result.searches, legacy.result.searches);
    EXPECT_EQ(engine.result.hits, legacy.result.hits);
    ASSERT_EQ(engine.result.epochs.size(), legacy.result.epochs.size());
    for (std::size_t e = 0; e < legacy.result.epochs.size(); ++e) {
      EXPECT_EQ(engine.result.epochs[e].messages,
                legacy.result.epochs[e].messages);
      EXPECT_EQ(engine.result.epochs[e].dropped,
                legacy.result.epochs[e].dropped);
      EXPECT_EQ(engine.result.epochs[e].nodes_reached,
                legacy.result.epochs[e].nodes_reached);
    }
    EXPECT_EQ(engine.metrics, legacy.metrics)
        << policy << " threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, SimDifferential,
    ::testing::Values(std::make_pair("association", false),
                      std::make_pair("association", true),
                      std::make_pair("flooding", false),
                      std::make_pair("flooding", true)));

TEST(SimDifferentialShards, ShardCountNeverChangesOutcomes) {
  const fault::Scenario scenario = faulted_scenario("association");
  const Capture base = capture_engine(scenario, /*faulted=*/true, 1, 1);
  for (const std::size_t shards : {std::size_t{3}, std::size_t{8},
                                   std::size_t{64}}) {
    const Capture other = capture_engine(scenario, true, 2, shards);
    EXPECT_EQ(other.result.outcome_bytes, base.result.outcome_bytes)
        << "shards=" << shards;
    EXPECT_EQ(other.metrics, base.metrics) << "shards=" << shards;
  }
}

TEST(SimDifferentialShards, EngineMetricsFamilyIsThreadInvariant) {
  const fault::Scenario scenario = base_scenario("association");
  obs::Registry::global().reset();
  EngineRunOptions options;
  options.engine_metrics = true;
  options.threads = 1;
  (void)run_engine_scenario(scenario, kSeed, false, options);
  std::ostringstream first;
  obs::Registry::global().write_json(first, {}, false);

  obs::Registry::global().reset();
  options.threads = 8;
  (void)run_engine_scenario(scenario, kSeed, false, options);
  std::ostringstream second;
  obs::Registry::global().write_json(second, {}, false);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("sim.engine.searches"), std::string::npos);
}

// RuleSet bytes: after identical workloads, every node's mined rule set —
// the deterministic CSV from RuleSet::save — must match between the two
// simulators, for serial and parallel engine runs alike.
TEST(SimDifferentialRules, RuleSetBytesMatchLegacy) {
  const fault::Scenario scenario = base_scenario("association");
  const overlay::PolicyFactory factory =
      overlay::scenario_policy_factory(scenario.policy);

  const auto drive_legacy = [&]() {
    util::Rng topo(kSeed);
    overlay::Graph graph =
        overlay::make_barabasi_albert(scenario.nodes, scenario.attach, topo);
    overlay::NetworkConfig config;
    config.seed = kSeed + 1;
    auto network = std::make_unique<overlay::Network>(
        config, std::move(graph), factory);
    overlay::SearchOptions options;
    options.ttl = scenario.ttl;
    util::Rng driver(kSeed + 2);
    overlay::run_queries(*network, scenario.warmup, options, driver, nullptr);
    return network;
  };

  const auto drive_engine = [&](std::size_t threads) {
    util::Rng topo(kSeed);
    overlay::Graph graph =
        overlay::make_barabasi_albert(scenario.nodes, scenario.attach, topo);
    EngineConfig config;
    config.seed = kSeed + 1;
    config.threads = threads;
    config.engine_metrics = false;
    auto engine = std::make_unique<Engine>(config, std::move(graph), factory);
    overlay::SearchOptions options;
    options.ttl = scenario.ttl;
    util::Rng driver(kSeed + 2);
    for (std::size_t i = 0; i < scenario.warmup; ++i) {
      const auto origin =
          static_cast<overlay::NodeId>(driver.below(engine->num_nodes()));
      workload::FileId target = engine->sample_target(origin);
      for (int attempt = 0;
           attempt < 8 && engine->store_has(origin, target); ++attempt) {
        target = engine->sample_target(origin);
      }
      (void)engine->search(origin, target, options);
    }
    return engine;
  };

  const auto legacy_rules = [](overlay::Network& network, overlay::NodeId node) {
    auto& policy = dynamic_cast<overlay::AssociationRoutingPolicy&>(
        network.policy(node));
    std::ostringstream bytes;
    policy.rules().save(bytes);
    return bytes.str();
  };
  const auto engine_rules = [](Engine& engine, overlay::NodeId node) {
    auto& model = dynamic_cast<PolicyPeerModel&>(engine.model());
    auto& policy =
        dynamic_cast<overlay::AssociationRoutingPolicy&>(model.policy(node));
    std::ostringstream bytes;
    policy.rules().save(bytes);
    return bytes.str();
  };

  const auto network = drive_legacy();
  bool any_nonempty = false;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
    const auto engine = drive_engine(threads);
    ASSERT_EQ(engine->num_nodes(), network->num_nodes());
    for (overlay::NodeId node = 0; node < network->num_nodes(); ++node) {
      const std::string expected = legacy_rules(*network, node);
      EXPECT_EQ(engine_rules(*engine, node), expected)
          << "node " << node << " threads " << threads;
      any_nonempty = any_nonempty || !expected.empty();
    }
  }
  EXPECT_TRUE(any_nonempty);
}

// Revisit-style policies draw from the shared rng mid-propagation; the
// engine's contract excludes them explicitly rather than silently diverging.
TEST(SimEngineContract, RejectsRevisitPolicies) {
  util::Rng topo(3);
  overlay::Graph graph = overlay::make_barabasi_albert(50, 2, topo);
  EngineConfig config;
  EXPECT_THROW(Engine(config, std::move(graph),
                      [](overlay::NodeId) {
                        return std::make_unique<overlay::KRandomWalkPolicy>(4);
                      }),
               std::invalid_argument);
}

}  // namespace
}  // namespace aar::sim
