#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>

#include "obs/registry.hpp"

namespace aar::sim {

namespace {

constexpr std::uint64_t kNoBudget = std::numeric_limits<std::uint64_t>::max();

// Split-seed salts for the kSharded build (peer salts start high enough to
// never collide with the named streams).
constexpr std::uint64_t kCatalogueSalt = 0xA1;
constexpr std::uint64_t kWorkloadSalt = 0xA2;
constexpr std::uint64_t kPeerSaltBase = 0x100;

// Rounds narrower than this are processed inline even when a pool exists:
// the submit/wait barrier costs more than the work.  Purely a performance
// knob — parallel and inline rounds produce identical results.
constexpr std::size_t kParallelWidth = 64;

/// Fold one finished search into the process-wide overlay counters.  Bound
/// once, bumped once per search — nothing obs-related runs per message.
void record_overlay_search(const overlay::SearchOutcome& outcome) {
  auto& registry = obs::Registry::global();
  static obs::Counter& searches = registry.counter("overlay.searches");
  static obs::Counter& hits = registry.counter("overlay.hits");
  static obs::Counter& queries = registry.counter("overlay.query_messages");
  static obs::Counter& replies = registry.counter("overlay.reply_messages");
  static obs::Counter& probes = registry.counter("overlay.probe_messages");
  static obs::Counter& fallbacks = registry.counter("overlay.flood_fallbacks");
  static obs::Counter& rule_routed = registry.counter("overlay.rule_routed");
  static obs::Counter& retry_attempts = registry.counter("overlay.retry.attempts");
  static obs::Counter& retry_timeouts = registry.counter("overlay.retry.timeouts");
  static obs::Counter& retry_degraded =
      registry.counter("overlay.retry.degraded_floods");
  static obs::Counter& retry_backoff =
      registry.counter("overlay.retry.backoff_stamps");
  searches.add(1);
  if (outcome.hit) hits.add(1);
  queries.add(outcome.query_messages);
  replies.add(outcome.reply_messages);
  probes.add(outcome.probe_messages);
  if (outcome.used_fallback) fallbacks.add(1);
  if (outcome.rule_routed) rule_routed.add(1);
  if (outcome.retries_used > 0) {
    retry_attempts.add(outcome.retries_used);
    if (!outcome.retry_stamps.empty()) {
      retry_backoff.add(outcome.retry_stamps.back());
    }
  }
  if (outcome.timed_out) retry_timeouts.add(1);
  if (outcome.degraded_to_flood) retry_degraded.add(1);
}

}  // namespace

Engine::Engine(const EngineConfig& config, overlay::Graph graph,
               const overlay::PolicyFactory& factory)
    : Engine(config, std::move(graph), std::unique_ptr<PeerModel>{}) {
  // Factories take no rng, so building every policy after the stores leaves
  // the workload stream untouched.
  model_ = std::make_unique<PolicyPeerModel>(num_nodes(), factory);
}

Engine::Engine(const EngineConfig& config, overlay::Graph graph,
               std::unique_ptr<PeerModel> model)
    : config_(config),
      graph_(std::move(graph)),
      rng_(config.build == EngineConfig::Build::kSequential
               ? config.seed
               : split_seed(config.seed, kWorkloadSalt)),
      build_rng_(split_seed(config.seed, kCatalogueSalt)),
      catalogue_(config.content, config.build == EngineConfig::Build::kSequential
                                     ? rng_
                                     : build_rng_),
      model_(std::move(model)) {
  const std::size_t n = graph_.num_nodes();
  threads_ = config_.threads != 0
                 ? config_.threads
                 : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  // One thread gains nothing from partitions; more shards only cost merge
  // work in the apply phase.
  shards_ = config_.shards != 0 ? config_.shards
            : threads_ == 1     ? 1
                                : std::max<std::size_t>(8, threads_);
  shards_ = std::clamp<std::size_t>(shards_, 1, std::max<std::size_t>(1, n));
  // Workers beyond the shard count can never receive work.
  threads_ = std::clamp<std::size_t>(threads_, 1, shards_);
  if (threads_ > 1) pool_ = std::make_unique<util::ThreadPool>(threads_);
  shard_state_.resize(shards_);
  merge_idx_.assign(shards_, 0);

  std::optional<obs::Timer::Scope> build_scope;
  if (config_.engine_metrics) {
    build_scope.emplace(obs::Registry::global().timer("sim.engine.build"));
  }
  profiles_.resize(n);
  store_offsets_.assign(n + 1, 0);
  store_overlaid_.assign(n, 0);
  if (config_.build == EngineConfig::Build::kSequential) {
    build_peers_sequential();
  } else {
    build_peers_sharded();
  }
  seen_stamp_.assign(n, 0);
  hit_stamp_.assign(n, 0);
  parent_.assign(n, overlay::kNoNode);
}

void Engine::build_peers_sequential() {
  // One workload rng, profile then store per node.  populate()'s draw count
  // depends on the evolving set membership, so it must run against a real
  // LocalStore; the result is flattened into the sorted struct-of-arrays
  // slices afterwards.
  const std::size_t n = graph_.num_nodes();
  store_files_.reserve(n * config_.files_per_node);
  for (std::size_t node = 0; node < n; ++node) {
    profiles_[node] = workload::InterestProfile::sample(
        rng_, config_.content.categories, config_.interest_breadth);
    workload::LocalStore store;
    store.populate(catalogue_, profiles_[node], config_.files_per_node, rng_);
    const std::size_t begin = store_files_.size();
    store_files_.insert(store_files_.end(), store.files().begin(),
                        store.files().end());
    std::sort(store_files_.begin() + static_cast<std::ptrdiff_t>(begin),
              store_files_.end());
    store_offsets_[node + 1] = store_files_.size();
  }
}

void Engine::build_peers_sharded() {
  // Split-seed construction: each peer draws from its own stream, so the
  // result is a pure function of (seed, node) — independent of the shard
  // count, the thread count, and the build order.
  const std::size_t n = graph_.num_nodes();
  std::vector<std::vector<workload::FileId>> stores(n);
  const std::uint64_t seed = config_.seed;
  util::parallel_for(
      0, n,
      [&](std::size_t node) {
        util::Rng prng(split_seed(seed, kPeerSaltBase + node));
        profiles_[node] = workload::InterestProfile::sample(
            prng, config_.content.categories, config_.interest_breadth);
        workload::LocalStore store;
        store.populate(catalogue_, profiles_[node], config_.files_per_node,
                       prng);
        std::vector<workload::FileId>& files = stores[node];
        files.assign(store.files().begin(), store.files().end());
        std::sort(files.begin(), files.end());
      },
      threads_);
  store_files_.reserve(n * config_.files_per_node);
  for (std::size_t node = 0; node < n; ++node) {
    store_files_.insert(store_files_.end(), stores[node].begin(),
                        stores[node].end());
    store_offsets_[node + 1] = store_files_.size();
  }
}

bool Engine::store_has(NodeId node, workload::FileId file) const {
  if (store_overlaid_[node] != 0) {
    const std::vector<workload::FileId>& files =
        store_overlay_.find(node)->second;
    return std::binary_search(files.begin(), files.end(), file);
  }
  const auto begin =
      store_files_.begin() + static_cast<std::ptrdiff_t>(store_offsets_[node]);
  const auto end = store_files_.begin() +
                   static_cast<std::ptrdiff_t>(store_offsets_[node + 1]);
  return std::binary_search(begin, end, file);
}

std::size_t Engine::store_size(NodeId node) const {
  return store_files(node).size();
}

std::span<const workload::FileId> Engine::store_files(NodeId node) const {
  if (store_overlaid_[node] != 0) return store_overlay_.find(node)->second;
  return std::span<const workload::FileId>(store_files_)
      .subspan(static_cast<std::size_t>(store_offsets_[node]),
               static_cast<std::size_t>(store_offsets_[node + 1] -
                                        store_offsets_[node]));
}

std::size_t Engine::replica_count(workload::FileId file) const {
  std::size_t count = 0;
  for (NodeId node = 0; node < num_nodes(); ++node) {
    if (store_has(node, file)) ++count;
  }
  return count;
}

void Engine::replace_peer(NodeId node, std::size_t attach) {
  // One shared workload rng in both build modes, so churn is thread/shard
  // independent.
  assert(node < num_nodes());
  const std::vector<NodeId> orphaned(graph_.neighbors(node).begin(),
                                     graph_.neighbors(node).end());
  graph_.detach(node);
  std::size_t linked = 0;
  std::size_t attempts = 0;
  while (linked < attach && attempts++ < 16 * attach) {
    const auto target = static_cast<NodeId>(rng_.below(num_nodes()));
    if (graph_.add_edge(node, target)) ++linked;
  }
  // Overlay maintenance: peers that lost the link re-open a connection so
  // the network does not thin out under sustained churn.
  for (NodeId neighbor : orphaned) {
    if (graph_.degree(neighbor) >= attach) continue;
    for (int attempt = 0; attempt < 16; ++attempt) {
      const auto target = static_cast<NodeId>(rng_.below(num_nodes()));
      if (graph_.add_edge(neighbor, target)) break;
    }
  }
  profiles_[node] = workload::InterestProfile::sample(
      rng_, config_.content.categories, config_.interest_breadth);
  workload::LocalStore store;
  store.populate(catalogue_, profiles_[node], config_.files_per_node, rng_);
  std::vector<workload::FileId>& overlay = store_overlay_[node];
  overlay.assign(store.files().begin(), store.files().end());
  std::sort(overlay.begin(), overlay.end());
  store_overlaid_[node] = 1;
  model_->reset_peer(node);
  // Every other peer's learned state about the departed peer — mined rule
  // consequents, shortcut entries — names a NodeId that now belongs to a
  // stranger; the model purges it.
  model_->on_peer_departed(node);
  // The replacement joins healthy regardless of its predecessor's state.
  if (faults_ != nullptr) faults_->on_peer_replaced(node);
  if (config_.engine_metrics) {
    obs::Registry::global().counter("sim.engine.churned").add(1);
  }
}

void Engine::churn(std::size_t count, std::size_t attach) {
  for (std::size_t i = 0; i < count; ++i) {
    replace_peer(static_cast<NodeId>(rng_.below(num_nodes())), attach);
  }
}

workload::FileId Engine::sample_target(NodeId origin) {
  const workload::Category category = profiles_[origin].sample_category(rng_);
  return catalogue_.sample_in(category, rng_);
}

void Engine::next_stamp() {
  if (++stamp_ == 0) {  // wrapped: reset versioned scratch state
    std::fill(seen_stamp_.begin(), seen_stamp_.end(), 0u);
    std::fill(hit_stamp_.begin(), hit_stamp_.end(), 0u);
    stamp_ = 1;
  }
}

Engine::ReplyResult Engine::deliver_reply(const overlay::Query& query,
                                          NodeId server) {
  // Gnutella routes QueryHits back along the reverse query path using the
  // per-node GUID routing tables; parent_ is exactly that table for the
  // current query.  Every node on the path observes the (antecedent,
  // consequent) pair and lets its policy learn from it — unless the reply
  // is lost mid-path, in which case the nodes past the loss (and the
  // origin) never see it.
  ReplyResult result;
  NodeId downstream = server;
  NodeId node = parent_[server];
  while (downstream != query.origin) {
    assert(node != overlay::kNoNode);
    ++result.messages;  // downstream -> node
    if (faults_ != nullptr && faults_->reply_lost(downstream, node)) {
      ++result.dropped;
      result.delivered = false;
      return result;
    }
    const NodeId upstream = node == query.origin ? node : parent_[node];
    model_->on_reply_path(query, node, upstream, downstream);
    downstream = node;
    node = upstream;
  }
  return result;
}

void Engine::push_event(std::uint64_t slot, const QueryEvent& event) {
  Shard& shard = shard_state_[shard_of(event.node)];
  assert(static_cast<std::size_t>(slot) < shard.queue.capacity_slots());
  shard.queue.push(slot, event);
}

bool Engine::admit(const QueryEvent& ev, const overlay::Query& query,
                   bool revisits, EventResult& r) {
  // Touches only state owned by ev.node's shard: seen/hit/parent are
  // indexed by the event's node, and shard_of(node) routed the event here.
  r.seq = ev.seq;
  r.node = ev.node;
  r.depth = ev.depth;
  r.ttl = ev.ttl;
  if (seen_stamp_[ev.node] == stamp_) return revisits;  // else suppressed
  seen_stamp_[ev.node] = stamp_;
  parent_[ev.node] = ev.from;
  r.flags |= EventResult::kFirstVisit;
  // Free riders forward but never answer; crashed peers never even receive
  // (their messages were dropped in transit).
  const bool answers = faults_ == nullptr || faults_->shares_content(ev.node);
  if (answers && store_has(ev.node, query.target) &&
      hit_stamp_[ev.node] != stamp_) {
    hit_stamp_[ev.node] = stamp_;
    r.flags |= EventResult::kHit;
  }
  return true;
}

void Engine::route_event(Shard& shard, const QueryEvent& ev,
                         const overlay::Query& query, bool force_flood,
                         util::Rng& rng, EventResult& r) {
  r.flags |= EventResult::kRouted;
  shard.route_scratch.clear();
  bool directed = false;
  if (force_flood) {
    for (NodeId neighbor : graph_.neighbors(ev.node)) {
      if (neighbor != ev.from) shard.route_scratch.push_back(neighbor);
    }
  } else {
    directed = model_->route(query, ev.node, ev.from,
                             graph_.neighbors(ev.node), rng,
                             shard.route_scratch);
  }
  if (directed) r.flags |= EventResult::kDirected;
  r.emit_offset = static_cast<std::uint32_t>(shard.emissions.size());
  for (NodeId target : shard.route_scratch) {
    if (target == ev.node) continue;
    shard.emissions.push_back(target);
  }
  r.emit_count =
      static_cast<std::uint32_t>(shard.emissions.size()) - r.emit_offset;
}

void Engine::process_shard_round(Shard& shard, std::uint64_t now,
                                 const overlay::Query& query,
                                 bool force_flood) {
  // PARALLEL phase: pure per-peer work for this shard's slot, into the
  // shard-local results/emissions buffers.  No shared rng, no metrics, no
  // cross-peer mutation — all of that happens in the serial apply phase.
  shard.results.clear();
  shard.emissions.clear();
  for (const QueryEvent& ev : shard.queue.at(now)) {
    EventResult r;
    if (admit(ev, query, /*revisits=*/false, r) && ev.ttl != 0) {
      // No revisit policy is installed, and the rest never draw; the
      // RoutingPolicy signature still demands a stream, so each call gets
      // a throwaway split from (guid, node).
      std::uint64_t state =
          query.guid ^ ((std::uint64_t{ev.node} + 1) * 0x9e3779b97f4a7c15ULL);
      util::Rng scratch(util::splitmix64(state));
      route_event(shard, ev, query, force_flood, scratch, r);
    }
    shard.results.push_back(r);
  }
}

void Engine::apply_arrival(const EventResult& r, const overlay::Query& query,
                           NodeId origin, PassState& st) {
  --st.frontier_size;
  if ((r.flags & EventResult::kFirstVisit) != 0) ++st.pass.nodes_reached;
  if ((r.flags & EventResult::kHit) == 0) return;
  ++st.pass.replicas_found;
  bool delivered = true;
  if (r.node != origin) {
    const ReplyResult reply = deliver_reply(query, r.node);
    st.pass.reply_messages += reply.messages;
    st.pass.dropped += reply.dropped;
    delivered = reply.delivered;
  }
  if (delivered && !st.pass.hit) {
    st.pass.hit = true;
    st.pass.hops_to_first_hit = r.depth;
    st.pass.first_server = r.node;
  }
}

void Engine::apply_emissions(const EventResult& r, const Shard& shard,
                             std::uint64_t now, NodeId origin, PassState& st) {
  const bool directed = (r.flags & EventResult::kDirected) != 0;
  if (r.node == origin && r.depth == 0) st.origin_decision = directed;
  st.any_directed = st.any_directed || directed;
  for (std::uint32_t i = 0; i < r.emit_count; ++i) {
    const NodeId target = shard.emissions[r.emit_offset + i];
    ++st.pass.query_messages;
    std::uint64_t arrival = now + 1;
    if (faults_ != nullptr) {
      const fault::ForwardVerdict verdict = faults_->on_forward(r.node, target);
      if (verdict.dropped) {
        ++st.pass.dropped;
        continue;  // sent, lost in transit
      }
      arrival += verdict.delay;
      if (verdict.duplicated && arrival <= st.budget) {
        ++st.pass.query_messages;  // the duplicate is a real extra message
        push_event(arrival, QueryEvent{next_seq_++, target, r.node,
                                       r.depth + 1, r.ttl - 1});
        ++st.frontier_size;
      }
    }
    if (arrival > st.budget) {
      st.pass.truncated = true;  // still in flight when the budget runs out
      continue;
    }
    push_event(arrival,
               QueryEvent{next_seq_++, target, r.node, r.depth + 1, r.ttl - 1});
    ++st.frontier_size;
  }
  st.frontier_peak =
      std::max(st.frontier_peak, static_cast<std::size_t>(st.frontier_size));
}

void Engine::apply_round(std::uint64_t now, const overlay::Query& query,
                         NodeId origin, PassState& st) {
  // SERIAL phase: merge the per-shard results back into global seq order
  // (each shard's list is seq-sorted by construction) and perform the
  // order-sensitive work.
  std::fill(merge_idx_.begin(), merge_idx_.end(), 0);
  for (;;) {
    std::size_t best = shards_;
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < shards_; ++s) {
      const std::vector<EventResult>& results = shard_state_[s].results;
      const std::size_t i = merge_idx_[s];
      if (i < results.size() && results[i].seq < best_seq) {
        best_seq = results[i].seq;
        best = s;
      }
    }
    if (best == shards_) break;
    const Shard& shard = shard_state_[best];
    const EventResult& r = shard.results[merge_idx_[best]++];
    apply_arrival(r, query, origin, st);
    if ((r.flags & EventResult::kRouted) != 0) {
      apply_emissions(r, shard, now, origin, st);
    }
  }
}

void Engine::revisit_round(std::uint64_t now, const overlay::Query& query,
                           NodeId origin, PassState& st) {
  // Revisit path: one event at a time in (time, seq) order.  A walker's
  // route draws from the workload stream, and it must see a hit delivered
  // by an earlier event of the same slot, so nothing here can be split
  // into phases.  Forwarded messages land in later slots, never this one.
  revisit_batch_.clear();
  for (Shard& shard : shard_state_) {
    const std::vector<QueryEvent>& slot = shard.queue.at(now);
    revisit_batch_.insert(revisit_batch_.end(), slot.begin(), slot.end());
  }
  if (shards_ > 1) {
    std::sort(revisit_batch_.begin(), revisit_batch_.end(),
              [](const QueryEvent& a, const QueryEvent& b) {
                return a.seq < b.seq;
              });
  }
  Shard& scratch = shard_state_.front();
  for (const QueryEvent& ev : revisit_batch_) {
    EventResult r;
    const bool revisits = model_->allows_revisit(ev.node);
    const bool admitted = admit(ev, query, revisits, r);
    apply_arrival(r, query, origin, st);
    // Walkers check back with the originator: once the query is answered,
    // outstanding walkers stop forwarding.
    if (!admitted || ev.ttl == 0 || (revisits && st.pass.hit)) continue;
    scratch.emissions.clear();
    route_event(scratch, ev, query, /*force_flood=*/false, rng_, r);
    apply_emissions(r, scratch, now, origin, st);
  }
}

Engine::PassOutcome Engine::run_pass(const overlay::Query& query, NodeId origin,
                                     std::uint32_t ttl, bool force_flood,
                                     std::uint64_t budget) {
  next_stamp();
  PassState st;
  st.budget = budget;

  // Horizon: the largest arrival stamp any message of this pass can carry.
  // Each hop costs 1 stamp plus at most (max_delay + slow_extra) fault
  // stamps, and depth + ttl is invariant, so arrivals never exceed
  // ttl * hop_max — and never the budget, past which pushes are truncated.
  std::uint64_t hop_max = 1;
  if (faults_ != nullptr) {
    hop_max += std::uint64_t{faults_->plan().max_delay} +
               faults_->plan().slow_extra;
  }
  const std::uint64_t horizon = std::min(budget, std::uint64_t{ttl} * hop_max);
  for (Shard& shard : shard_state_) {
    shard.queue.ensure(static_cast<std::size_t>(horizon) + 1);
  }

  next_seq_ = 0;
  push_event(0, QueryEvent{next_seq_++, origin, origin, 0, ttl});
  st.frontier_size = 1;

  // Forced floods never revisit, so only policy passes can need the path.
  const bool revisit_path = !force_flood && model_->any_revisit();
  std::uint64_t rounds = 0;
  std::uint64_t events = 0;
  for (std::uint64_t now = 0; now <= horizon && st.frontier_size > 0; ++now) {
    std::size_t width = 0;
    for (Shard& shard : shard_state_) width += shard.queue.at(now).size();
    if (width == 0) continue;
    st.pass.elapsed = now;
    ++rounds;
    events += width;

    if (revisit_path) {
      revisit_round(now, query, origin, st);
    } else {
      if (pool_ != nullptr && width >= kParallelWidth) {
        for (std::size_t s = 0; s < shards_; ++s) {
          Shard* shard = &shard_state_[s];
          pool_->submit([this, shard, now, &query, force_flood] {
            process_shard_round(*shard, now, query, force_flood);
          });
        }
        pool_->wait();
      } else {
        for (Shard& shard : shard_state_) {
          process_shard_round(shard, now, query, force_flood);
        }
      }
      apply_round(now, query, origin, st);
    }
    for (Shard& shard : shard_state_) shard.queue.at(now).clear();
  }

  static obs::Histogram& peak_hist = obs::Registry::global().histogram(
      "overlay.frontier_peak", 0.0, 1024.0, 64);
  peak_hist.observe(static_cast<double>(st.frontier_peak));
  if (config_.engine_metrics) {
    auto& registry = obs::Registry::global();
    registry.counter("sim.engine.rounds").add(rounds);
    registry.counter("sim.engine.events").add(events);
  }
  st.pass.origin_rule_routed = st.origin_decision && !force_flood;
  st.pass.any_rule_routed = st.any_directed && !force_flood;
  return st.pass;
}

void Engine::record(const overlay::SearchOutcome& outcome) {
  record_overlay_search(outcome);
  if (config_.engine_metrics) {
    obs::Registry::global().counter("sim.engine.searches").add(1);
  }
}

overlay::SearchOutcome Engine::search(NodeId origin, workload::FileId target,
                                      const overlay::SearchOptions& options) {
  assert(origin < num_nodes());
  const std::uint32_t ttl =
      options.ttl != 0 ? options.ttl : config_.default_ttl;
  ++search_clock_;
  if (faults_ != nullptr) faults_->begin_search(search_clock_);

  overlay::Query query;
  query.guid = next_guid_++;
  query.target = target;
  query.category = catalogue_.category_of(target);
  query.origin = origin;

  overlay::SearchOutcome outcome;

  // A crashed origin issues nothing (its user is gone too); the workload
  // drivers still count the search so success rates reflect the outage.
  if (faults_ != nullptr && faults_->crashed(origin)) {
    record(outcome);
    return outcome;
  }

  // Phase A: direct shortcut probes, if the origin's policy keeps any.
  probe_scratch_.clear();
  model_->probe_candidates(query, origin, probe_scratch_);
  for (NodeId candidate : probe_scratch_) {
    outcome.probe_messages += 2;  // request + response
    if (candidate < num_nodes() && store_has(candidate, target)) {
      if (faults_ != nullptr && faults_->probe_lost(origin, candidate)) {
        continue;  // unanswered: crashed/free-riding/severed peer or loss
      }
      outcome.hit = true;
      outcome.hops_to_first_hit = 1;
      outcome.replicas_found = 1;
      outcome.rule_routed = true;
      model_->on_search_result(query, origin, true, candidate);
      record(outcome);
      return outcome;
    }
  }

  auto merge = [&outcome](const PassOutcome& pass) {
    outcome.query_messages += pass.query_messages;
    outcome.reply_messages += pass.reply_messages;
    outcome.dropped_messages += pass.dropped;
    outcome.nodes_reached = std::max(outcome.nodes_reached, pass.nodes_reached);
    if (pass.hit && !outcome.hit) {
      outcome.hit = true;
      outcome.hops_to_first_hit = pass.hops_to_first_hit;
    }
    outcome.replicas_found =
        std::max(outcome.replicas_found, pass.replicas_found);
  };

  const std::uint64_t timeout =
      options.timeout_stamps == 0 ? kNoBudget : options.timeout_stamps;
  std::uint64_t now = 0;
  bool budget_exhausted = false;
  NodeId server = overlay::kNoNode;

  if (options.mode == overlay::SearchMode::kExpandingRing) {
    std::uint32_t ring = 1;
    for (;;) {
      const PassOutcome pass =
          run_pass(query, origin, ring, /*force_flood=*/true,
                   timeout == kNoBudget ? kNoBudget : timeout - now);
      merge(pass);
      now += pass.elapsed;
      if (pass.hit) {
        server = pass.first_server;
        break;
      }
      if (pass.truncated || now >= timeout) {
        budget_exhausted = true;
        break;
      }
      if (ring >= ttl) break;
      ring = std::min(ttl, ring * 2);
    }
  } else if (options.max_retries == 0) {
    const PassOutcome pass =
        run_pass(query, origin, ttl, /*force_flood=*/false, timeout);
    merge(pass);
    now += pass.elapsed;
    outcome.rule_routed = pass.origin_rule_routed && pass.query_messages > 0;
    server = pass.first_server;
    budget_exhausted = pass.truncated;
    const bool fallback_wanted =
        options.flood_fallback || model_->wants_flood_fallback(origin);
    if (!pass.hit && fallback_wanted && pass.any_rule_routed &&
        !budget_exhausted) {
      const PassOutcome retry =
          run_pass(query, origin, ttl, /*force_flood=*/true,
                   timeout == kNoBudget ? kNoBudget : timeout - now);
      merge(retry);
      now += retry.elapsed;
      outcome.used_fallback = true;
      server = retry.first_server;
      budget_exhausted = retry.truncated;
    }
  } else {
    const std::uint32_t attempts = 1 + options.max_retries;
    for (std::uint32_t attempt = 0; attempt < attempts; ++attempt) {
      if (attempt > 0) {
        std::uint64_t backoff = std::max<std::uint64_t>(
            1, std::uint64_t{options.backoff_base} << (attempt - 1));
        if (options.backoff_jitter > 0) {
          util::Rng& jitter_rng = faults_ != nullptr ? faults_->rng() : rng_;
          backoff +=
              jitter_rng.below(std::uint64_t{options.backoff_jitter} + 1);
        }
        if (now + backoff >= timeout) {
          now = timeout;
          budget_exhausted = true;
          break;
        }
        now += backoff;
        outcome.retry_stamps.push_back(now);
        ++outcome.retries_used;
      }
      const bool final_flood = attempt > 0 && attempt + 1 == attempts;
      query.widen = final_flood ? 0 : attempt * options.widen_per_retry;
      const PassOutcome pass =
          run_pass(query, origin, ttl, final_flood,
                   timeout == kNoBudget ? kNoBudget : timeout - now);
      merge(pass);
      now += pass.elapsed;
      if (attempt == 0) {
        outcome.rule_routed = pass.origin_rule_routed && pass.query_messages > 0;
      }
      if (final_flood) {
        outcome.degraded_to_flood = true;
        outcome.used_fallback = true;
      }
      if (pass.hit) {
        server = pass.first_server;
        break;
      }
      if (pass.truncated || now >= timeout) {
        budget_exhausted = true;
        break;
      }
    }
  }

  outcome.elapsed_stamps = now;
  outcome.timed_out = !outcome.hit && budget_exhausted;
  model_->on_search_result(query, origin, outcome.hit, server);
  record(outcome);
  return outcome;
}

}  // namespace aar::sim
