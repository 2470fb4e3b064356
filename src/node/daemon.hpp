#pragma once
// aar_node daemon (docs/NODE.md): the paper's "modified Gnutella node"
// promoted from a test fixture to a networked servent — sharded across
// cores since ISSUE 8.
//
// The Daemon is the control plane: it binds the serving and admin
// listeners, accepts neighbor connections in a single accept path that
// assigns monotonically increasing connection ids, and pins each connection
// to one of `threads` Shards by id ((id-1) % threads) — a deterministic
// hand-off where SO_REUSEPORT's kernel hash would scatter connections
// differently on every run.  Each Shard (src/node/shard.hpp) owns its
// connections end to end: epoll set, FrameDecoder, outbound buffering, and
// the send-stall RetryLadder.  Cross-connection state — the GUID
// route/join table, the live-peer roster, and the mining window — lives in
// SharedState (src/node/snapshot.hpp): shards append observed pairs to
// private windows, a canonical-order merge publishes an immutable routing
// snapshot, and relay reads it lock-free.
//
// With --threads 1 the daemon is byte-for-byte the old single-threaded
// node on paced input: same relay decisions, same admin stats, same mined
// rule bytes (the CI determinism gate and tests/test_node.cpp pin this,
// including thread-invariance for N in {2,4,8}).
//
// The admin port serves a plain-text protocol (one command per line:
// `health`, `stats`, `metrics`, `rules`, `connect host:port`,
// `disconnect <id>`, `shutdown`) exporting the `node.*` and per-shard
// `node.shard.<i>.*` metric families documented in docs/OBSERVABILITY.md.
//
// Since ISSUE 9 daemons also peer with each other: `--peer host:port`
// (repeatable) and admin `connect` dial outbound links that run the
// Gnutella 0.4 CONNECT/OK handshake (src/node/peering.hpp), join the
// roster as first-class neighbors, exchange TTL-1 keepalive pings, and
// reconnect with deterministic backoff when they die.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "node/net.hpp"
#include "node/shard.hpp"
#include "node/snapshot.hpp"

namespace aar::node {

struct NodeConfig {
  /// Serving / admin ports; 0 = ephemeral (query the accessor).
  std::uint16_t port = 0;
  std::uint16_t admin_port = 0;

  /// Shard (thread) count for the serving path; 1 reproduces the old
  /// single-threaded daemon exactly.  The admin listener always stays on
  /// the control thread.
  std::size_t threads = 1;

  /// Serving listener address.  The default is loopback; any non-loopback
  /// address is refused unless `allow_nonloopback` opts in (the CLI's
  /// `--bind` flag sets both).  The admin listener is always loopback.
  std::string bind_addr = "127.0.0.1";
  bool allow_nonloopback = false;

  /// Mining window (pairs), support threshold, and snapshot cadence for the
  /// live rule set; defaults scale like overlay::AssociationPolicyConfig.
  std::size_t window = 4096;
  std::uint32_t min_support = 2;
  std::size_t rebuild_every = 64;
  /// Fan-out for rule-directed relay (top-k consequents).
  std::size_t top_k = 2;

  /// Send-stall retry ladder (the overlay robustness ladder on real
  /// sockets): bounded retries under exponential backoff with jitter, then
  /// the peer is declared dead.
  std::uint32_t retries = 3;
  std::uint32_t backoff_ms = 10;
  std::uint32_t backoff_jitter_ms = 0;
  /// Total stall budget: a connection whose buffer has not drained for this
  /// long times out even if retries remain.
  std::uint32_t send_timeout_ms = 2'000;
  /// Userspace outbound cap per connection; frames beyond it are dropped
  /// and the connection counts as stalled until it drains.
  std::size_t max_outbound = 4u << 20;

  /// Base seed for per-connection backoff jitter (see node::jitter_seed).
  std::uint64_t seed = 7;
  /// SO_SNDBUF override for accepted peer sockets; 0 = kernel default
  /// (tests shrink it to exercise the ladder with few bytes).
  int send_buffer = 0;

  /// Outbound peers dialed at startup (`--peer host:port`, repeatable).
  /// Each runs the Gnutella 0.4 CONNECT/OK handshake and reconnects with
  /// deterministic backoff when the link dies (docs/NODE.md "Peering").
  std::vector<PeerAddress> peers;
  /// Keepalive cadence on peered links; 0 disables keepalive entirely
  /// (lockstep determinism tests pass a huge interval instead so the
  /// peer counters stay comparable).
  std::uint32_t ping_interval_ms = 2'000;
  /// Consecutive unanswered keepalive pings before a peered link is
  /// declared dead and purged from the published rules.
  std::uint32_t pong_budget = 3;

  /// Durable state directory (docs/STORAGE.md).  Empty disables
  /// persistence entirely — no files, no lsm.* metrics.  When set, the
  /// daemon (a) checkpoints the miner's merged window to
  /// `<state-dir>/window.aartr` (tmp + atomic rename) at shutdown and
  /// every `checkpoint_ms`, restoring it at startup so the published rule
  /// bytes survive a restart, and (b) folds every mined pair into an
  /// aar::lsm archive store at `<state-dir>/archive` (admin `archive <id>`
  /// reads it back).
  std::string state_dir;
  /// Periodic checkpoint cadence in ms; 0 = shutdown-only checkpoints.
  std::uint32_t checkpoint_ms = 0;
};

/// Aggregate daemon counters (mirrored into the obs `node.*` family), summed
/// over the shards plus the control thread's accept/admin counts.
struct NodeStats {
  std::uint64_t accepted = 0;
  std::uint64_t disconnects = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t messages_in = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t queries_in = 0;
  std::uint64_t hits_in = 0;
  std::uint64_t pings_in = 0;
  std::uint64_t dropped = 0;          ///< relay drops (duplicate/expired/unrouted)
  std::uint64_t queries_relayed = 0;  ///< query frames enqueued to targets
  std::uint64_t hits_relayed = 0;     ///< hit frames enqueued on reverse paths
  std::uint64_t rule_routed = 0;      ///< queries forwarded by mined rules
  std::uint64_t flooded = 0;          ///< queries forwarded by flooding
  std::uint64_t routed_hits = 0;      ///< hits answering rule-routed queries
  std::uint64_t pairs_mined = 0;
  std::uint64_t snapshots = 0;
  std::uint64_t send_retries = 0;
  std::uint64_t send_timeouts = 0;
  std::uint64_t degraded_floods = 0;  ///< rules named only dead/stalled peers
  std::uint64_t admin_requests = 0;
  std::uint64_t peer_handshakes = 0;  ///< completed 0.4 handshakes (either side)
  std::uint64_t peer_pongs = 0;       ///< keepalive pongs received
  std::uint64_t peer_missed = 0;      ///< keepalive pings unanswered in time
  std::uint64_t peer_reconnects = 0;  ///< outbound re-dial attempts
  std::uint64_t restored_pairs = 0;   ///< window pairs recovered at startup
  std::uint64_t checkpoints = 0;      ///< window checkpoints written

  /// Fraction of observed query-hits that answered a rule-routed query —
  /// the daemon's live analogue of the paper's success measure.
  [[nodiscard]] double routed_hit_fraction() const noexcept {
    return pairs_mined == 0 ? 0.0
                            : static_cast<double>(routed_hits) /
                                  static_cast<double>(pairs_mined);
  }
};

class Daemon {
 public:
  /// Binds both listening sockets (throws std::system_error on failure;
  /// std::invalid_argument for a non-loopback bind_addr without the
  /// allow_nonloopback opt-in); serving starts at run().
  explicit Daemon(NodeConfig config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] std::uint16_t admin_port() const noexcept {
    return admin_port_;
  }

  /// Serve until stop() or an admin `shutdown` command.  Call once; spawns
  /// the shard threads and joins them before returning.
  void run();

  /// Thread-safe: wake the loop and make run() return after the current
  /// iteration.
  void stop();

  /// Aggregated counters (thread-safe; exact once run() returned).
  [[nodiscard]] const NodeStats& stats() const;

  /// Frames fully processed across all shards (every side effect applied) —
  /// lockstep drivers wait on this, not on messages_in, which ticks at
  /// frame *start*.
  [[nodiscard]] std::uint64_t messages_processed() const noexcept;

  /// The published rule snapshot, serialized (core::RuleSet::save — the
  /// canonical bytes the thread-invariance gate compares).  Thread-safe.
  [[nodiscard]] std::string rules_text() const;

  /// Dial an outbound peer (also behind admin `connect host:port`).  The
  /// owning shard runs connect/handshake/reconnect; returns the assigned
  /// neighbor id.  Control thread only (run() startup / admin handler).
  NeighborId dial_peer(const PeerAddress& address);
  /// Close the link with `id` and cancel its reconnect schedule (admin
  /// `disconnect <id>`).  Control thread only.
  void drop_peer(NeighborId id);

 private:
  struct AdminConnection {
    Fd fd;
    std::string input;
    std::vector<std::uint8_t> outbound;
    std::size_t out_off = 0;
    bool close_after_flush = false;
    bool want_out = false;

    [[nodiscard]] std::size_t queued() const noexcept {
      return outbound.size() - out_off;
    }
  };

  void accept_peers();
  void accept_admin();
  void on_admin_readable(AdminConnection& connection);
  void handle_admin_line(AdminConnection& connection, const std::string& line);
  void admin_enqueue(AdminConnection& connection,
                     std::span<const std::uint8_t> bytes);
  void admin_flush(AdminConnection& connection);
  void close_admin(int fd);
  void admin_want_writable(AdminConnection& connection, bool enable);
  void aggregate(NodeStats& out) const;
  void sync_metrics();
  /// Open the lsm archive under state_dir and replay the last window
  /// checkpoint (ctor; no-op without state_dir).  A missing or torn
  /// checkpoint file is a cold start, never an abort.
  void open_state();
  /// Write the miner window to `<state-dir>/window.aartr` (tmp + atomic
  /// rename), then flush and compact the archive store (Store::maintain),
  /// so its run count stays bounded over uptime.  Control thread only.
  void checkpoint();
  [[nodiscard]] std::string stats_text() const;
  [[nodiscard]] std::string metrics_json();

  NodeConfig config_;
  Fd listen_fd_;
  Fd admin_fd_;
  Fd epoll_fd_;
  Fd wake_fd_;
  std::uint16_t port_ = 0;
  std::uint16_t admin_port_ = 0;

  SharedState shared_;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Durable state (--state-dir); both empty/null when persistence is off.
  std::unique_ptr<lsm::Store> archive_;
  std::uint64_t restored_pairs_ = 0;
  std::atomic<std::uint64_t> checkpoints_{0};
  std::chrono::steady_clock::time_point last_checkpoint_{};

  std::unordered_map<int, std::unique_ptr<AdminConnection>> admin_conns_;
  NeighborId next_neighbor_ = 1;
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> admin_requests_{0};

  /// Delta accounting for the per-shard node.shard.<i>.* counter family.
  struct ShardReported {
    std::uint64_t messages_in = 0;
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t relayed_in = 0;
    std::uint64_t relay_expired = 0;
    std::uint64_t pairs_mined = 0;
  };

  NodeStats reported_;  ///< synced into obs counters (delta accounting)
  std::vector<ShardReported> shard_reported_;
  mutable std::mutex stats_mu_;
  mutable NodeStats aggregate_;

  std::vector<std::uint8_t> read_buffer_;
  std::atomic<bool> stop_{false};
  bool stopping_ = false;
  bool ran_ = false;
};

}  // namespace aar::node
