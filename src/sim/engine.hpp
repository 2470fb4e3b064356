#pragma once
// Sharded discrete-event overlay engine (docs/SIMULATION.md) — the overlay
// simulator.  overlay::Network is this class under its overlay name.
//
// Gnutella-style search as a discrete-event system built to scale to
// millions of peers:
//
//   * struct-of-arrays peer state — flat sorted per-peer store slices,
//     stamp-versioned visited/hit/parent arrays — instead of one Peer
//     object (hash-set store, heap policy) per node;
//   * peers are partitioned into shards (shard(node) = node % shards);
//     each shard owns a calendar event queue keyed on virtual time;
//   * one virtual-time round = a PARALLEL phase (each shard scans its slot
//     and computes the pure per-peer work: duplicate suppression, store
//     lookup, policy routing into per-shard emission buffers) followed by a
//     SERIAL apply phase that merges the per-shard results back into the
//     canonical (time, seq) order and performs everything order-sensitive:
//     fault rng draws, reply delivery and learning, message accounting,
//     budget checks, and scheduling of the next hop.
//   * revisit path: while any installed policy allows_revisit() (random
//     walks), a pass skips the two phases and handles one event at a time
//     in (time, seq) order — deliver, route (drawing from the workload
//     stream), apply — so a walker sees an answer the moment it lands and
//     stops forwarding.
//
// Determinism: every rng draw and every cross-peer mutation happens in
// (time, seq) order, never depending on the thread or shard count, so
// outcomes are byte-equal for any threads/shards configuration.  The
// goldens in tests/data/golden_overlay.v1 pin the bytes.

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "fault/fault.hpp"
#include "overlay/graph.hpp"
#include "overlay/policy.hpp"
#include "overlay/search.hpp"
#include "sim/event.hpp"
#include "sim/peer_model.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload/content.hpp"
#include "workload/interests.hpp"

namespace aar::sim {

/// Mix a salt into a seed (split-seed discipline, as in aar::fault): child
/// streams never perturb, and are never perturbed by, the parent stream.
[[nodiscard]] inline std::uint64_t split_seed(std::uint64_t seed,
                                              std::uint64_t salt) noexcept {
  std::uint64_t state = seed ^ ((salt + 1) * 0x9e3779b97f4a7c15ULL);
  return util::splitmix64(state);
}

struct EngineConfig {
  std::uint64_t seed = 1;
  std::size_t files_per_node = 24;
  std::size_t interest_breadth = 3;
  std::uint32_t default_ttl = 7;
  workload::ContentConfig content{};

  /// How peer state is constructed.
  enum class Build : std::uint8_t {
    /// One workload rng, sequential: catalogue, then profile and store per
    /// node, then the query workload all draw from it.  O(n) serial; what
    /// every overlay driver and golden uses.
    kSequential,
    /// Split-seed construction: catalogue from its own stream, each peer's
    /// profile/store from a per-PEER stream — build parallelizes and the
    /// result is independent of both the shard and the thread count.
    kSharded,
  };
  Build build = Build::kSequential;

  /// Peer partitions (0 = 1 on one thread, else max(8, threads)).  Never
  /// affects outcomes.
  std::size_t shards = 0;
  /// Parallel-phase workers (1 = fully serial; 0 = hardware concurrency).
  std::size_t threads = 1;
  /// Record the sim.engine.* metric family.  overlay.* is always recorded;
  /// with this off a metrics snapshot holds the overlay family alone.
  bool engine_metrics = false;
};

class Engine {
 public:
  Engine(const EngineConfig& config, overlay::Graph graph,
         const overlay::PolicyFactory& factory);
  Engine(const EngineConfig& config, overlay::Graph graph,
         std::unique_ptr<PeerModel> model);

  /// Issue one query and simulate it to completion.
  overlay::SearchOutcome search(NodeId origin, workload::FileId target,
                                const overlay::SearchOptions& options = {});

  /// Sample a query target matching `origin`'s interests (interest-based
  /// locality: peers ask for content in their own categories).
  [[nodiscard]] workload::FileId sample_target(NodeId origin);

  /// Peer churn: the peer at `node` departs and a fresh peer joins in its
  /// place — links dropped, `attach` new random links made, new interests,
  /// new store, and a fresh policy from the construction factory.  Every
  /// other peer is told so learned state naming the old peer gets purged.
  void replace_peer(NodeId node, std::size_t attach);
  /// Replace `count` uniformly random peers (one churn epoch).
  void churn(std::size_t count, std::size_t attach);

  /// Install a fault injector consulted at every message hop and peer touch
  /// (null uninstalls).  A FaultPlan::none() injector with an empty
  /// schedule is bit-for-bit equivalent to no injector at all.
  void install_faults(std::unique_ptr<fault::FaultInjector> injector) {
    faults_ = std::move(injector);
  }
  [[nodiscard]] fault::FaultInjector* faults() noexcept { return faults_.get(); }

  /// Replace a node's routing policy (adoption sweeps, A/B tests).  Throws
  /// std::invalid_argument for a null policy, std::bad_cast when the engine
  /// runs a custom PeerModel.
  void set_policy(NodeId node, std::unique_ptr<overlay::RoutingPolicy> policy) {
    policy_model().set_policy(node, std::move(policy));
  }
  [[nodiscard]] overlay::RoutingPolicy& policy(NodeId node) {
    return policy_model().policy(node);
  }

  /// Add an overlay link (rule-driven topology adaptation, §VI).  Returns
  /// false for self-loops and existing links.
  bool add_link(NodeId a, NodeId b) { return graph_.add_edge(a, b); }

  [[nodiscard]] bool store_has(NodeId node, workload::FileId file) const;
  [[nodiscard]] std::size_t store_size(NodeId node) const;
  /// `node`'s shared files, sorted.
  [[nodiscard]] std::span<const workload::FileId> store_files(NodeId node) const;
  [[nodiscard]] const workload::InterestProfile& profile(NodeId node) const {
    return profiles_[node];
  }
  /// Total replicas of `file` across all stores (workload sanity checks).
  [[nodiscard]] std::size_t replica_count(workload::FileId file) const;
  [[nodiscard]] const overlay::Graph& graph() const noexcept { return graph_; }
  [[nodiscard]] const workload::ContentCatalogue& catalogue() const noexcept {
    return catalogue_;
  }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return profiles_.size();
  }
  [[nodiscard]] PeerModel& model() noexcept { return *model_; }
  [[nodiscard]] util::Rng& rng() noexcept { return rng_; }
  [[nodiscard]] std::size_t shards() const noexcept { return shards_; }
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

 private:
  struct PassOutcome {
    bool hit = false;
    std::uint32_t hops_to_first_hit = 0;
    std::uint32_t replicas_found = 0;
    std::uint32_t nodes_reached = 0;
    std::uint64_t query_messages = 0;
    std::uint64_t reply_messages = 0;
    bool origin_rule_routed = false;
    bool any_rule_routed = false;
    NodeId first_server = overlay::kNoNode;
    std::uint64_t elapsed = 0;
    std::uint64_t dropped = 0;
    bool truncated = false;
  };

  struct ReplyResult {
    std::uint64_t messages = 0;
    std::uint64_t dropped = 0;
    bool delivered = true;
  };

  /// Everything one pass threads through its rounds.
  struct PassState {
    PassOutcome pass;
    std::uint64_t budget = 0;
    std::uint64_t frontier_size = 0;  ///< messages still in flight
    std::size_t frontier_peak = 1;
    bool origin_decision = true;
    bool any_directed = false;
  };

  /// Per-shard working set for one round.
  struct Shard {
    ShardQueue queue;
    std::vector<EventResult> results;
    std::vector<NodeId> emissions;
    std::vector<NodeId> route_scratch;
  };

  [[nodiscard]] std::size_t shard_of(NodeId node) const noexcept {
    return static_cast<std::size_t>(node) % shards_;
  }

  [[nodiscard]] PolicyPeerModel& policy_model() {
    return dynamic_cast<PolicyPeerModel&>(*model_);
  }

  void build_peers_sequential();
  void build_peers_sharded();

  PassOutcome run_pass(const overlay::Query& query, NodeId origin,
                       std::uint32_t ttl, bool force_flood,
                       std::uint64_t budget);
  void process_shard_round(Shard& shard, std::uint64_t now,
                           const overlay::Query& query, bool force_flood);
  void apply_round(std::uint64_t now, const overlay::Query& query,
                   NodeId origin, PassState& st);
  void revisit_round(std::uint64_t now, const overlay::Query& query,
                     NodeId origin, PassState& st);
  bool admit(const QueryEvent& event, const overlay::Query& query,
             bool revisits, EventResult& result);
  void route_event(Shard& shard, const QueryEvent& event,
                   const overlay::Query& query, bool force_flood,
                   util::Rng& rng, EventResult& result);
  void apply_arrival(const EventResult& result, const overlay::Query& query,
                     NodeId origin, PassState& st);
  void apply_emissions(const EventResult& result, const Shard& shard,
                       std::uint64_t now, NodeId origin, PassState& st);
  void push_event(std::uint64_t slot, const QueryEvent& event);
  ReplyResult deliver_reply(const overlay::Query& query, NodeId server);
  void next_stamp();
  void record(const overlay::SearchOutcome& outcome);

  EngineConfig config_;
  overlay::Graph graph_;
  util::Rng rng_;        ///< workload stream (also builds kSequential peers)
  util::Rng build_rng_;  ///< kSharded catalogue stream (unused in kSequential)
  workload::ContentCatalogue catalogue_;

  // Struct-of-arrays peer state.
  std::vector<workload::InterestProfile> profiles_;
  std::vector<std::uint64_t> store_offsets_;       ///< n + 1 entries
  std::vector<workload::FileId> store_files_;      ///< flat sorted slices
  std::vector<std::uint8_t> store_overlaid_;       ///< 1 = see store_overlay_
  std::unordered_map<NodeId, std::vector<workload::FileId>> store_overlay_;

  std::unique_ptr<PeerModel> model_;
  std::unique_ptr<fault::FaultInjector> faults_;

  // Stamp-versioned per-query scratch (never cleared between searches).
  std::vector<std::uint32_t> seen_stamp_;
  std::vector<std::uint32_t> hit_stamp_;
  std::vector<NodeId> parent_;
  std::uint32_t stamp_ = 0;
  trace::Guid next_guid_ = 1;
  std::uint64_t search_clock_ = 0;

  std::size_t shards_ = 1;
  std::size_t threads_ = 1;
  std::vector<Shard> shard_state_;
  std::vector<std::size_t> merge_idx_;         ///< apply-phase merge cursors
  std::vector<QueryEvent> revisit_batch_;      ///< revisit_round's slot copy
  std::vector<NodeId> probe_scratch_;
  std::unique_ptr<util::ThreadPool> pool_;     ///< null when threads_ == 1
  std::uint64_t next_seq_ = 0;
};

}  // namespace aar::sim
