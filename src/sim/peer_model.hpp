#pragma once
// The narrow interface between the discrete-event engine and peer behaviour.
//
// aar::sim::Engine knows nothing about rule mining or shortcut lists: every
// behavioural decision goes through a PeerModel.  The contract splits along
// the engine's two phases:
//
//   * route() runs in the PARALLEL phase — it may be called concurrently for
//     distinct peers, must be deterministic, and must touch only state owned
//     by `self` plus the stream it is handed.
//   * every other hook runs in the SERIAL apply phase, in the canonical
//     event order, and may mutate cross-peer state freely.
//
// Peers that revisit (allows_revisit(): k-random walks) change that split:
// while any peer does, the engine processes every pass one event at a time
// in (time, seq) order, and route() draws from the engine's workload stream.
//
// PolicyPeerModel adapts the overlay::RoutingPolicy zoo (flooding, random
// walks, interest shortcuts, routing indices, association routing)
// unchanged.

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "overlay/graph.hpp"
#include "overlay/policy.hpp"
#include "util/rng.hpp"

namespace aar::sim {

using overlay::NodeId;

class PeerModel {
 public:
  virtual ~PeerModel() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Choose forwarding targets for `query` arriving at `self` from `from`.
  /// Returns true when the selection was policy-directed.  Called
  /// concurrently for distinct peers unless some peer revisits; must be
  /// deterministic and touch only per-`self` state and `rng`.
  virtual bool route(const overlay::Query& query, NodeId self, NodeId from,
                     std::span<const NodeId> neighbors, util::Rng& rng,
                     std::vector<NodeId>& out) = 0;

  /// Does `self` forward queries it has already seen (random walks)?
  [[nodiscard]] virtual bool allows_revisit(NodeId self) const {
    (void)self;
    return false;
  }
  /// Does any peer allow revisits?  Selects the engine's serial pass.
  [[nodiscard]] virtual bool any_revisit() const { return false; }

  // --- serial-phase hooks (never called concurrently) ---------------------

  /// A reply passed back through `self` (the paper's mined observation).
  virtual void on_reply_path(const overlay::Query& query, NodeId self,
                             NodeId upstream, NodeId downstream) {
    (void)query, (void)self, (void)upstream, (void)downstream;
  }

  /// Direct probe candidates for the origin before any propagation.
  virtual void probe_candidates(const overlay::Query& query, NodeId self,
                                std::vector<NodeId>& out) {
    (void)query, (void)self, (void)out;
  }

  /// Origin-side notification of the final outcome.
  virtual void on_search_result(const overlay::Query& query, NodeId self,
                                bool hit, NodeId server) {
    (void)query, (void)self, (void)hit, (void)server;
  }

  /// Should a miss at `origin` be retried by flooding?
  [[nodiscard]] virtual bool wants_flood_fallback(NodeId origin) const {
    (void)origin;
    return false;
  }

  /// Churn: the peer at `node` was replaced — discard its learned state.
  virtual void reset_peer(NodeId node) = 0;

  /// Churn: tell every peer EXCEPT `departed` that the old occupant of that
  /// NodeId is gone, so learned state naming it gets purged.
  virtual void on_peer_departed(NodeId departed) = 0;
};

/// Adapter running one overlay::RoutingPolicy per peer, created by a
/// PolicyFactory.  Throws std::invalid_argument whenever a null policy would
/// be installed (factory or set_policy).
class PolicyPeerModel final : public PeerModel {
 public:
  PolicyPeerModel(std::size_t peers, const overlay::PolicyFactory& factory);

  [[nodiscard]] std::string name() const override;

  bool route(const overlay::Query& query, NodeId self, NodeId from,
             std::span<const NodeId> neighbors, util::Rng& rng,
             std::vector<NodeId>& out) override;
  [[nodiscard]] bool allows_revisit(NodeId self) const override {
    return policies_[self]->allows_revisit();
  }
  [[nodiscard]] bool any_revisit() const override { return revisiting_ > 0; }

  void on_reply_path(const overlay::Query& query, NodeId self, NodeId upstream,
                     NodeId downstream) override;
  void probe_candidates(const overlay::Query& query, NodeId self,
                        std::vector<NodeId>& out) override;
  void on_search_result(const overlay::Query& query, NodeId self, bool hit,
                        NodeId server) override;
  [[nodiscard]] bool wants_flood_fallback(NodeId origin) const override;
  void reset_peer(NodeId node) override;
  void on_peer_departed(NodeId departed) override;

  [[nodiscard]] overlay::RoutingPolicy& policy(NodeId node) {
    return *policies_[node];
  }
  /// Replace one peer's policy (adoption sweeps, A/B tests).  Churn
  /// reinstalls the factory's policy.
  void set_policy(NodeId node, std::unique_ptr<overlay::RoutingPolicy> policy);

 private:
  overlay::PolicyFactory factory_;
  std::vector<std::unique_ptr<overlay::RoutingPolicy>> policies_;
  std::size_t revisiting_ = 0;  ///< installed policies that allow revisits
};

}  // namespace aar::sim
