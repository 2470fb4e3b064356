// aar_node daemon tests (docs/NODE.md): the retry-ladder schedule and its
// per-connection jitter seeding, the in-process loopback end-to-end loop
// (serve + replay on real sockets, rules mined from relayed traffic,
// rule-routed hits), shard-count invariance of stats and mined rule bytes
// under a lockstep driver, disconnect purges across shards, the plain-text
// admin endpoint, the send-stall ladder against a peer that stops reading,
// the loopback-only default bind, the mining hub's merge boundaries (one
// merge per rebuild_every pairs across threads, stale-roster purges,
// restored windows), and the aar_node CLI's flag validation (driven
// through the real binary).

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ruleset.hpp"
#include "gnutella/codec.hpp"
#include "node/daemon.hpp"
#include "node/net.hpp"
#include "node/replay.hpp"
#include "node/snapshot.hpp"
#include "util/rng.hpp"

namespace aar::node {
namespace {

// --- retry ladder schedule -----------------------------------------------

TEST(RetryLadder, DelaysDoublePerAttempt) {
  const RetryLadder ladder{.retries = 3, .backoff_ms = 10, .jitter_ms = 0};
  util::Rng rng(1);
  EXPECT_EQ(ladder.delay_ms(0, rng), 10u);
  EXPECT_EQ(ladder.delay_ms(1, rng), 20u);
  EXPECT_EQ(ladder.delay_ms(2, rng), 40u);
  EXPECT_FALSE(ladder.exhausted(2));
  EXPECT_TRUE(ladder.exhausted(3));
}

TEST(RetryLadder, JitterStaysInBounds) {
  const RetryLadder ladder{.retries = 2, .backoff_ms = 8, .jitter_ms = 5};
  util::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const std::uint32_t delay = ladder.delay_ms(1, rng);
    EXPECT_GE(delay, 16u);
    EXPECT_LE(delay, 21u);
  }
}

TEST(RetryLadder, ZeroBackoffStillWaits) {
  const RetryLadder ladder{.retries = 1, .backoff_ms = 0, .jitter_ms = 0};
  util::Rng rng(1);
  EXPECT_GE(ladder.delay_ms(0, rng), 1u);  // clamped: a zero wait would spin
}

TEST(RetryLadder, HugeAttemptDoesNotOverflow) {
  const RetryLadder ladder{.retries = 100, .backoff_ms = 1000, .jitter_ms = 0};
  util::Rng rng(1);
  EXPECT_LE(ladder.delay_ms(99, rng), 60u * 1000u);  // capped at a minute
}

// --- per-connection jitter seeding ---------------------------------------

std::vector<std::uint32_t> ladder_schedule(std::uint64_t daemon_seed,
                                           NeighborId id) {
  const RetryLadder ladder{.retries = 6, .backoff_ms = 10, .jitter_ms = 100};
  util::Rng rng(jitter_seed(daemon_seed, id));
  std::vector<std::uint32_t> delays;
  for (std::uint32_t attempt = 0; attempt < ladder.retries; ++attempt) {
    delays.push_back(ladder.delay_ms(attempt, rng));
  }
  return delays;
}

TEST(RetryLadder, JitterScheduleIsAPureFunctionOfSeedAndConnectionId) {
  // The old daemon drew jitter from one shared rng, so every stall
  // perturbed every later connection's schedule; per-connection seeding
  // makes the schedule reproducible from (daemon seed, connection id)
  // alone, whatever else the daemon is doing.
  EXPECT_EQ(ladder_schedule(7, 3), ladder_schedule(7, 3));
  EXPECT_NE(ladder_schedule(7, 3), ladder_schedule(7, 4));
  EXPECT_NE(ladder_schedule(7, 3), ladder_schedule(8, 3));
}

TEST(RetryLadder, JitterSeedSpreadsAdjacentIds) {
  // splitmix64 mixing: adjacent connection ids must not land on nearby
  // rng states (a plain seed+id would).
  const std::uint64_t a = jitter_seed(7, 1);
  const std::uint64_t b = jitter_seed(7, 2);
  EXPECT_NE(a, b);
  EXPECT_GT(a ^ b, 0xFFFFull);  // differ in more than the low bits
}

// --- in-process loopback end to end --------------------------------------

struct DaemonHarness {
  explicit DaemonHarness(NodeConfig config = {})
      : daemon(config), server([this] { daemon.run(); }) {}
  ~DaemonHarness() {
    daemon.stop();
    if (server.joinable()) server.join();
  }
  Daemon daemon;
  std::thread server;
};

std::string admin_request(std::uint16_t port, const std::string& command) {
  Fd fd = connect_tcp("127.0.0.1", port);
  const std::string line = command + "\n";
  std::span<const std::uint8_t> remaining(
      reinterpret_cast<const std::uint8_t*>(line.data()), line.size());
  while (!remaining.empty()) {
    const IoResult r = write_some(fd.get(), remaining);
    if (r.status == IoStatus::closed) return {};
    remaining = remaining.subspan(r.n);
  }
  std::string reply;
  std::vector<std::uint8_t> buffer(16 * 1024);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const IoResult r = read_some(fd.get(), buffer);
    if (r.status == IoStatus::closed) break;
    if (r.status == IoStatus::would_block) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    reply.append(reinterpret_cast<const char*>(buffer.data()), r.n);
  }
  return reply;
}

TEST(NodeDaemon, LoopbackReplayMinesRulesAndRoutesHits) {
  NodeConfig config;
  config.min_support = 2;
  config.rebuild_every = 16;
  DaemonHarness harness(config);

  ReplayConfig load;
  load.port = harness.daemon.port();
  load.connections = 4;
  load.pairs = 1500;
  load.hosts = 16;
  load.hit_lag = 8;
  load.rate = 20'000.0;  // paced so hits land after their queries
  load.drain_ms = 300;
  load.seed = 3;
  const ReplayStats replay = run_replay(load);

  // The relay worked end to end: hits were routed back along the reverse
  // path to the connection that issued the query...
  EXPECT_GT(replay.matched_hits, 0u);
  // ...and every relayed frame carried the rewritten header (the TTL/hops
  // regression, verified on real wire bytes).
  EXPECT_EQ(replay.ttl_violations, 0u);
  EXPECT_EQ(replay.malformed, 0u);

  harness.daemon.stop();
  harness.server.join();
  const NodeStats& stats = harness.daemon.stats();
  EXPECT_EQ(stats.queries_in, 1500u);
  EXPECT_EQ(stats.hits_in, 1500u);
  // Observed pairs fed the miner, snapshots produced rules, and live
  // queries were routed by them — with hits to show for it.
  EXPECT_GT(stats.pairs_mined, 0u);
  EXPECT_GT(stats.snapshots, 0u);
  EXPECT_GT(stats.rule_routed, 0u);
  EXPECT_GT(stats.routed_hits, 0u);
  EXPECT_GT(stats.routed_hit_fraction(), 0.0);
}

TEST(NodeDaemon, AdminEndpointServesStatsMetricsHealth) {
  NodeConfig config;
  DaemonHarness harness(config);

  ReplayConfig load;
  load.port = harness.daemon.port();
  load.connections = 2;
  load.pairs = 50;
  load.hit_lag = 4;
  load.rate = 10'000.0;
  load.drain_ms = 100;
  const ReplayStats replay = run_replay(load);
  ASSERT_GT(replay.frames_received, 0u);

  EXPECT_EQ(admin_request(harness.daemon.admin_port(), "health"), "ok\n");

  const std::string stats =
      admin_request(harness.daemon.admin_port(), "stats");
  EXPECT_NE(stats.find("node.messages_in 100"), std::string::npos) << stats;
  EXPECT_NE(stats.find("node.routed_hit_fraction"), std::string::npos);
  EXPECT_NE(stats.find("end\n"), std::string::npos);

  const std::string metrics =
      admin_request(harness.daemon.admin_port(), "metrics");
  EXPECT_NE(metrics.find("aar.metrics.v1"), std::string::npos);

  const std::string unknown =
      admin_request(harness.daemon.admin_port(), "frobnicate");
  EXPECT_NE(unknown.find("err unknown command"), std::string::npos);
}

TEST(NodeDaemon, AdminShutdownStopsTheLoop) {
  DaemonHarness harness;
  EXPECT_EQ(admin_request(harness.daemon.admin_port(), "shutdown"), "ok\n");
  harness.server.join();  // run() must return on its own
  EXPECT_GE(harness.daemon.stats().admin_requests, 1u);
}

TEST(NodeDaemon, SendStallLadderDisconnectsDeadPeer) {
  NodeConfig config;
  config.retries = 2;
  config.backoff_ms = 5;
  // Generous stall budget so the ladder dies by rung exhaustion, not the
  // wall clock: under TSan the shard can spend > budget relaying the 16 MiB
  // backlog before the first retry timer ever fires, which would jump
  // straight to send_timeouts with send_retries still 0.
  config.send_timeout_ms = 60'000;
  config.send_buffer = 4096;  // shrink the kernel's slack
  DaemonHarness harness(config);

  // Peer A sends large queries; peer B never reads its socket, so the
  // daemon's relays to B stall, the ladder retries, and B is declared dead.
  Fd sender = connect_tcp("127.0.0.1", harness.daemon.port());
  Fd dead = connect_tcp("127.0.0.1", harness.daemon.port());

  const std::string big(32 * 1024, 'q');
  std::vector<std::uint8_t> frame;
  for (std::uint64_t i = 0; i < 512; ++i) {
    frame = gnutella::serialize(
        gnutella::make_query(gnutella::make_wire_guid(i + 1), 4, 0, big));
    std::span<const std::uint8_t> remaining(frame.data(), frame.size());
    bool alive = true;
    while (!remaining.empty() && alive) {
      const IoResult r = write_some(sender.get(), remaining);
      switch (r.status) {
        case IoStatus::closed:
          alive = false;
          break;
        case IoStatus::would_block:
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          break;
        case IoStatus::ok:
          remaining = remaining.subspan(r.n);
          break;
      }
    }
  }

  // Wait for the ladder to walk its rungs and give up on B.  The budget is
  // generous: a cold first run under ASan on one core can take several
  // seconds before the stall clock even starts.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string stats =
        admin_request(harness.daemon.admin_port(), "stats");
    if (stats.find("node.send_timeouts 0\n") == std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }

  harness.daemon.stop();
  harness.server.join();
  const NodeStats& stats = harness.daemon.stats();
  EXPECT_GE(stats.send_retries, 1u);
  EXPECT_GE(stats.send_timeouts, 1u);
  EXPECT_GE(stats.disconnects, 1u);
}

// --- loopback-only default bind ------------------------------------------

TEST(NodeDaemon, DefaultConfigurationRefusesNonLoopbackBind) {
  NodeConfig config;
  config.bind_addr = "0.0.0.0";  // no allow_nonloopback opt-in
  try {
    Daemon daemon(config);
    FAIL() << "constructing a non-loopback daemon without the opt-in must "
              "throw";
  } catch (const std::invalid_argument& error) {
    // The refusal must name the flag that opts in.
    EXPECT_NE(std::string(error.what()).find("--bind"), std::string::npos)
        << error.what();
  }
}

TEST(NodeDaemon, ExplicitOptInAllowsNonLoopbackBind) {
  NodeConfig config;
  config.bind_addr = "0.0.0.0";
  config.allow_nonloopback = true;
  EXPECT_NO_THROW({ Daemon daemon(config); });
}

// --- shard-count invariance (lockstep driver) ----------------------------

/// Drives a daemon frame by frame over real loopback sockets, waiting for
/// each frame to be fully processed (Daemon::messages_processed) before
/// sending the next — the in-process analogue of `aar_node replay
/// --lockstep 1`.  Serializing the processing order makes stats and mined
/// rule bytes comparable across shard counts.
struct LockstepDriver {
  explicit LockstepDriver(Daemon& daemon, std::size_t connections)
      : daemon(daemon) {
    for (std::size_t i = 0; i < connections; ++i) {
      conns.push_back(connect_tcp("127.0.0.1", daemon.port()));
    }
    // connect_tcp returns when the kernel completes the handshake, which is
    // before the control thread accepts and registers the peer; a frame sent
    // now could flood to fewer targets than the settled roster.  Wait for
    // every peer to be accepted (the roster add happens-before the accepted
    // bump) so relay decisions see the same peer list on every run.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (daemon.stats().accepted < connections) {
      if (std::chrono::steady_clock::now() >= deadline) {
        ADD_FAILURE() << "peers never accepted";
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  void send(std::size_t conn, const std::vector<std::uint8_t>& bytes) {
    const std::uint64_t target = daemon.messages_processed() + 1;
    std::span<const std::uint8_t> remaining(bytes.data(), bytes.size());
    while (!remaining.empty()) {
      const IoResult r = write_some(conns[conn].get(), remaining);
      ASSERT_NE(r.status, IoStatus::closed);
      if (r.status == IoStatus::would_block) {
        drain();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        continue;
      }
      remaining = remaining.subspan(r.n);
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (daemon.messages_processed() < target) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "frame never processed";
      drain();
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  /// Discard whatever the daemon relayed back so its sends never stall.
  void drain() {
    std::vector<std::uint8_t> buffer(16 * 1024);
    for (Fd& fd : conns) {
      if (!fd.valid()) continue;
      for (;;) {
        const IoResult r = read_some(fd.get(), buffer);
        if (r.status != IoStatus::ok || r.n == 0) break;
      }
    }
  }

  Daemon& daemon;
  std::vector<Fd> conns;
};

/// The synthetic association workload: host h's queries arrive from conn
/// h % C and its hits always arrive through conn (h % C + 1) % C, so the
/// miner has stable (query key -> replying neighbor) structure to find.
void drive_association_workload(LockstepDriver& driver, std::size_t pairs,
                                std::uint32_t hosts, std::size_t conns,
                                std::size_t lag) {
  std::size_t next_hit = 0;
  const auto send_query = [&](std::size_t i) {
    const std::uint32_t h = static_cast<std::uint32_t>(i) % hosts;
    char search[16];
    std::snprintf(search, sizeof search, "q%u", h);
    driver.send(h % conns,
                gnutella::serialize(gnutella::make_query(
                    gnutella::make_wire_guid(1000 + i), 4, 0, search)));
  };
  const auto send_hit = [&](std::size_t i) {
    const std::uint32_t h = static_cast<std::uint32_t>(i) % hosts;
    char file[16];
    std::snprintf(file, sizeof file, "f%u", h);
    driver.send((h % conns + 1) % conns,
                gnutella::serialize(gnutella::make_query_hit(
                    gnutella::make_wire_guid(1000 + i), 4,
                    gnutella::make_wire_guid(h),
                    {gnutella::HitResult{.file_index = h,
                                         .file_size = 1,
                                         .file_name = file}})));
  };
  for (std::size_t i = 0; i < pairs; ++i) {
    send_query(i);
    while (next_hit + lag <= i) send_hit(next_hit++);
  }
  while (next_hit < pairs) send_hit(next_hit++);
}

std::string describe(const NodeStats& stats) {
  std::ostringstream out;
  out << stats.accepted << ' ' << stats.disconnects << ' ' << stats.bytes_in
      << ' ' << stats.bytes_out << ' ' << stats.messages_in << ' '
      << stats.malformed_frames << ' ' << stats.queries_in << ' '
      << stats.hits_in << ' ' << stats.pings_in << ' ' << stats.dropped << ' '
      << stats.queries_relayed << ' ' << stats.hits_relayed << ' '
      << stats.rule_routed << ' ' << stats.flooded << ' ' << stats.routed_hits
      << ' ' << stats.pairs_mined << ' ' << stats.snapshots << ' '
      << stats.send_retries << ' ' << stats.send_timeouts << ' '
      << stats.degraded_floods;
  return out.str();
}

/// Wait until the aggregated stats stop moving (trailing cross-shard relay
/// deliveries land asynchronously even after every frame is processed).
std::string settled_stats(Daemon& daemon) {
  std::string last = describe(daemon.stats());
  int stable = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::string now = describe(daemon.stats());
    if (now == last) {
      // Three quiet reads in a row: trailing deliveries can straggle when
      // the host is oversubscribed (ctest -j on one core).
      if (++stable >= 3) return now;
    } else {
      stable = 0;
      last = std::move(now);
    }
  }
  return last;
}

TEST(NodeDaemon, StatsAndRuleBytesAreInvariantUnderShardCount) {
  std::string reference_stats;
  std::string reference_rules;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    NodeConfig config;
    config.threads = threads;
    config.min_support = 2;
    config.rebuild_every = 16;
    DaemonHarness harness(config);
    LockstepDriver driver(harness.daemon, 4);
    drive_association_workload(driver, 240, 8, 4, 8);

    const std::string stats = settled_stats(harness.daemon);
    // Capture the published rule bytes while the connections are still
    // open: closing them purges the departed peers from the rule set.
    const std::string rules = harness.daemon.rules_text();
    EXPECT_GT(harness.daemon.stats().rule_routed, 0u) << "threads=" << threads;
    EXPECT_GT(harness.daemon.stats().snapshots, 0u) << "threads=" << threads;
    if (threads == 1) {
      reference_stats = stats;
      reference_rules = rules;
      EXPECT_NE(rules.find('\n'), std::string::npos) << "empty rule set";
    } else {
      EXPECT_EQ(stats, reference_stats) << "threads=" << threads;
      EXPECT_EQ(rules, reference_rules) << "threads=" << threads;
    }
  }
}

// --- disconnect purge across shards --------------------------------------

TEST(NodeDaemon, DisconnectPurgesDeadPeersFromPublishedRulesAcrossShards) {
  NodeConfig config;
  config.threads = 2;
  config.min_support = 2;
  config.rebuild_every = 16;
  DaemonHarness harness(config);
  // Accept order pins ids 1..4; shard = (id-1) % 2, so ids 3 and 4 sit on
  // different shards.
  LockstepDriver driver(harness.daemon, 4);
  drive_association_workload(driver, 160, 8, 4, 8);
  (void)settled_stats(harness.daemon);

  const auto published = [&] {
    std::istringstream in(harness.daemon.rules_text());
    return core::RuleSet::load(in);
  };
  // The daemon mines neighbor-to-neighbor associations: queries arriving
  // from neighbor A are answered through neighbor B.
  const auto routes_at = [](const core::RuleSet& rules, NeighborId antecedent,
                            NeighborId consequent) {
    const auto targets = rules.top_k(antecedent, 4);
    return std::find(targets.begin(), targets.end(), consequent) !=
           targets.end();
  };

  // Hosts with h % 4 == 1 query via neighbor 2 and are answered via
  // neighbor 3 (shard 0); h % 4 == 2 query via neighbor 3, answered via
  // neighbor 4 (shard 1).  Both rules must be live before the kills.
  const core::RuleSet before = published();
  ASSERT_TRUE(routes_at(before, 2, 3)) << "workload mined no rule 2 -> 3";
  ASSERT_TRUE(routes_at(before, 3, 4)) << "workload mined no rule 3 -> 4";

  // Kill both hit-carrying connections — one per shard.
  driver.conns[2].reset();
  driver.conns[3].reset();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (harness.daemon.stats().disconnects < 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "daemon never noticed the disconnects";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  // Each close purges the departed peer and republishes: the next snapshot
  // a shard routes against cannot name either dead neighbor.
  const core::RuleSet after = published();
  EXPECT_FALSE(routes_at(after, 2, 3)) << "purge left a rule at dead peer 3";
  EXPECT_FALSE(routes_at(after, 3, 4)) << "purge left a rule at dead peer 4";
}

// --- mining hub merge boundaries -----------------------------------------

TEST(NodeMiningHub, NotePairFiresOncePerBoundaryWithoutAMerge) {
  MiningHub hub({.window = 4096, .min_support = 2}, 64, 1);
  for (int i = 1; i <= 64; ++i) {
    EXPECT_EQ(hub.note_pair(), i == 64) << "pair " << i;
  }
  // No merge ran: the 65th pair must not claim the boundary again.
  EXPECT_FALSE(hub.note_pair());
  for (int i = 66; i < 128; ++i) EXPECT_FALSE(hub.note_pair()) << "pair " << i;
  EXPECT_TRUE(hub.note_pair());
}

TEST(NodeMiningHub, ConcurrentShardsMergeOncePerBoundaryAndReadersNeverBlock) {
  constexpr std::size_t kShards = 2;
  constexpr std::size_t kPerShard = 4000;
  constexpr std::size_t kRebuild = 64;
  PeerDirectory peers;
  for (NeighborId id = 1; id <= 4; ++id) {
    (void)peers.add(id, static_cast<std::uint32_t>((id - 1) % kShards));
  }
  std::vector<ShardWindow> windows(kShards);
  MiningHub hub({.window = 4096, .min_support = 2}, kRebuild, kShards);
  std::atomic<std::uint64_t> clock{0};
  std::atomic<bool> done{false};

  // A reader polling the published snapshot the way a shard's relay path
  // does, racing every merge (TSan covers this suite).
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      (void)hub.routing()->rules.num_rules();
    }
  });
  std::vector<std::thread> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.emplace_back([&, s] {
      util::Rng rng(s + 1);
      for (std::size_t i = 0; i < kPerShard; ++i) {
        const std::uint64_t tick = clock.fetch_add(1) + 1;
        windows[s].append(trace::QueryReplyPair{
            .time = static_cast<double>(tick),
            .guid = tick,
            .source_host = static_cast<trace::HostId>(1 + rng.below(4)),
            .replying_neighbor = static_cast<trace::HostId>(1 + rng.below(4))});
        if (hub.note_pair()) hub.merge(windows, *peers.list());
      }
    });
  }
  for (std::thread& shard : shards) shard.join();
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(hub.snapshots(), kShards * kPerShard / kRebuild);
  hub.merge(windows, *peers.list());
  EXPECT_EQ(hub.window_pairs().size(), 4096u);
}

TEST(NodeMiningHub, MergeWithAStaleRosterStillDropsADepartedPeer) {
  PeerDirectory peers;
  (void)peers.add(1, 0);
  (void)peers.add(2, 0);
  std::vector<ShardWindow> windows(1);
  MiningHub hub({.window = 64, .min_support = 1}, 16, 1);
  windows[0].append(trace::QueryReplyPair{
      .time = 1.0, .guid = 1, .source_host = 1, .replying_neighbor = 2});
  // A merging shard fetched the roster, then neighbor 2 disconnected and
  // was purged before the merge took the lock.
  const std::shared_ptr<const PeerList> stale = peers.list();
  peers.remove(2);
  hub.purge(2);
  hub.merge(windows, *stale);
  EXPECT_TRUE(hub.window_pairs().empty());
  EXPECT_TRUE(hub.routing()->rules.empty());
}

TEST(NodeMiningHub, RestoredWindowSurvivesTheNextMerge) {
  PeerDirectory peers;
  (void)peers.add(1, 0);
  (void)peers.add(2, 0);
  std::vector<ShardWindow> windows(1);
  MiningHub hub({.window = 64, .min_support = 1}, 16, 1);
  const auto pair_at = [](double time) {
    return trace::QueryReplyPair{.time = time,
                                 .guid = static_cast<std::uint64_t>(time),
                                 .source_host = 1,
                                 .replying_neighbor = 2};
  };
  // A checkpointed window, restored before serving starts.
  std::vector<trace::QueryReplyPair> restored;
  for (int t = 1; t <= 10; ++t) restored.push_back(pair_at(t));
  hub.restore_window(restored);
  // Fresh traffic extends the restored window instead of replacing it.
  for (int t = 11; t <= 26; ++t) windows[0].append(pair_at(t));
  hub.merge(windows, *peers.list());
  const std::vector<trace::QueryReplyPair> window = hub.window_pairs();
  ASSERT_EQ(window.size(), 26u);
  EXPECT_EQ(window.front().time, 1.0);
  EXPECT_EQ(window.back().time, 26.0);
}

// --- CLI flag validation (real binary) -----------------------------------

int run_cli(const std::string& args) {
  const std::string command =
      std::string(AAR_NODE_BINARY) + " " + args + " >/dev/null 2>&1";
  const int rc = std::system(command.c_str());
  return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(NodeCli, NoCommandPrintsUsage) { EXPECT_EQ(run_cli(""), 2); }

TEST(NodeCli, UnknownCommandPrintsUsage) {
  EXPECT_EQ(run_cli("dance"), 2);
}

TEST(NodeCli, UnknownFlagIsRejected) {
  EXPECT_EQ(run_cli("serve --bogus 1"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --velocity 9"), 2);
}

TEST(NodeCli, FlagWithoutValueIsRejected) {
  EXPECT_EQ(run_cli("serve --port"), 2);
}

TEST(NodeCli, ReplayRequiresPort) { EXPECT_EQ(run_cli("replay"), 2); }

TEST(NodeCli, ServeThreadsMustBeAnIntegerInRange) {
  EXPECT_EQ(run_cli("serve --threads 0"), 2);
  EXPECT_EQ(run_cli("serve --threads 65"), 2);
  EXPECT_EQ(run_cli("serve --threads four"), 2);
  EXPECT_EQ(run_cli("serve --threads 4x"), 2);
  EXPECT_EQ(run_cli("serve --threads -1"), 2);
}

TEST(NodeCli, ServeBindRejectsMalformedAddress) {
  // A bad --bind is a runtime failure (listen_tcp refuses the address),
  // not a usage error.
  EXPECT_EQ(run_cli("serve --bind 256.1.1.1 --port 0 --admin-port 0"), 1);
  EXPECT_EQ(run_cli("serve --bind not-an-addr --port 0 --admin-port 0"), 1);
}

TEST(NodeCli, AdminFailsCleanlyWhenDaemonUnreachable) {
  // Port 1 is never bound in the test environment; connect must fail and
  // the CLI must report a runtime error, not a usage error.
  EXPECT_EQ(run_cli("admin --port 1 --command health"), 1);
}

TEST(NodeCli, ServePeerMustBeStrictHostPort) {
  // parse_host_port accepts only a dotted-quad IPv4 plus a port in
  // 1..65535; anything looser is a usage error before any socket opens.
  EXPECT_EQ(run_cli("serve --peer localhost:9"), 2);
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1"), 2);
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1:0"), 2);
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1:99999"), 2);
  EXPECT_EQ(run_cli("serve --peer :9"), 2);
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1:9x"), 2);
  // Repeatable flag: one bad address poisons the whole invocation even
  // when another --peer is well-formed.
  EXPECT_EQ(run_cli("serve --peer 127.0.0.1:9 --peer nohost"), 2);
}

TEST(NodeCli, ServeKeepaliveFlagsMustBeIntegersInRange) {
  EXPECT_EQ(run_cli("serve --ping-interval -1"), 2);
  EXPECT_EQ(run_cli("serve --ping-interval 3600001"), 2);
  EXPECT_EQ(run_cli("serve --ping-interval 2s"), 2);
  EXPECT_EQ(run_cli("serve --pong-budget 0"), 2);
  EXPECT_EQ(run_cli("serve --pong-budget 101"), 2);
  EXPECT_EQ(run_cli("serve --pong-budget three"), 2);
}

TEST(NodeCli, ReplayExpectHitsMustBeAPositiveInteger) {
  EXPECT_EQ(run_cli("replay --port 1 --expect-hits 0"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --expect-hits -5"), 2);
  EXPECT_EQ(run_cli("replay --port 1 --expect-hits many"), 2);
}

// --- replay stats rendering ----------------------------------------------

TEST(NodeReplay, LatencyLinesRenderNotAvailableWithoutSamples) {
  // A run that matched nothing must not print 0.0ms percentiles — that
  // would read as an impossibly fast network instead of "no hit ever came
  // back" (the --expect-hits failure mode in cluster smoke tests).
  ReplayStats stats;
  const std::string text = to_text(stats);
  EXPECT_NE(text.find("replay.latency_samples 0\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("replay.latency_p50_ms n/a\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("replay.latency_p99_ms n/a\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("replay.latency_max_ms n/a\n"), std::string::npos)
      << text;

  stats.latency_samples = 3;
  stats.latency_p50_ms = 1.25;
  stats.latency_p99_ms = 2.5;
  stats.latency_max_ms = 4.0;
  const std::string with_samples = to_text(stats);
  EXPECT_EQ(with_samples.find(" n/a"), std::string::npos) << with_samples;
  EXPECT_NE(with_samples.find("replay.latency_samples 3\n"),
            std::string::npos)
      << with_samples;
  EXPECT_NE(with_samples.find("replay.latency_p50_ms 1.25"),
            std::string::npos)
      << with_samples;
}

}  // namespace
}  // namespace aar::node
