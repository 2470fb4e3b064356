#include "node/shard.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <system_error>

#include "lsm/store.hpp"
#include "node/daemon.hpp"
#include "obs/metrics.hpp"
#include "obs/registry.hpp"

namespace aar::node {

namespace {

using gnutella::Header;
using gnutella::Message;
using gnutella::MessageType;

constexpr std::size_t kReadChunk = 64 * 1024;

std::uint32_t elapsed_ms(std::chrono::steady_clock::duration d) {
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(d);
  return ms.count() < 0 ? 0 : static_cast<std::uint32_t>(ms.count());
}

/// The 0.4 relay header rewrite: one TTL spent, one hop travelled.
Header relay_header(const Header& header) noexcept {
  Header out = header;
  out.ttl = static_cast<std::uint8_t>(header.ttl - 1);
  out.hops = static_cast<std::uint8_t>(header.hops + 1);
  return out;
}

void bump(std::atomic<std::uint64_t>& counter, std::uint64_t n = 1) noexcept {
  counter.fetch_add(n, std::memory_order_relaxed);
}

std::span<const std::uint8_t> banner_bytes(std::string_view banner) noexcept {
  return {reinterpret_cast<const std::uint8_t*>(banner.data()), banner.size()};
}

}  // namespace

std::uint32_t RetryLadder::delay_ms(std::uint32_t attempt,
                                    util::Rng& rng) const {
  const std::uint32_t shift = std::min(attempt, 16u);
  std::uint64_t base = std::uint64_t{std::max(backoff_ms, 1u)} << shift;
  if (jitter_ms > 0) base += rng.below(std::uint64_t{jitter_ms} + 1);
  return static_cast<std::uint32_t>(
      std::min<std::uint64_t>(base, 60u * 1000u));
}

std::uint64_t jitter_seed(std::uint64_t daemon_seed, NeighborId id) noexcept {
  std::uint64_t state =
      daemon_seed ^ (0x9e3779b97f4a7c15ULL * (std::uint64_t{id} + 1));
  return util::splitmix64(state);
}

Shard::Shard(std::size_t index, const NodeConfig& config, SharedState& shared)
    : index_(index),
      config_(config),
      shared_(shared),
      ladder_{config.retries, config.backoff_ms, config.backoff_jitter_ms},
      forwarder_(core::ForwarderConfig{.k = config.top_k,
                                       .mode = core::SelectionMode::kTopK}),
      rng_(config.seed + index) {
  epoll_fd_ = Fd(::epoll_create1(0));
  if (!epoll_fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "epoll_create1");
  }
  wake_fd_ = Fd(::eventfd(0, EFD_NONBLOCK));
  if (!wake_fd_.valid()) {
    throw std::system_error(errno, std::generic_category(), "eventfd");
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) < 0) {
    throw std::system_error(errno, std::generic_category(), "epoll_ctl");
  }
  read_buffer_.resize(kReadChunk);
}

Shard::~Shard() {
  request_stop();
  join();
}

void Shard::start() {
  thread_ = std::thread([this] { run(); });
}

void Shard::request_stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

void Shard::join() {
  if (thread_.joinable()) thread_.join();
}

void Shard::wake() {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof one);
}

void Shard::adopt(Fd peer, NeighborId id, std::shared_ptr<Peer> entry) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(Adopt{std::move(peer), id, std::move(entry)});
  }
  wake();
}

void Shard::deliver(RelayFrame frame) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(std::move(frame));
  }
  wake();
}

void Shard::dial(PeerAddress address, NeighborId id) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(Dial{std::move(address), id});
  }
  wake();
}

void Shard::drop(NeighborId id) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_.push_back(Drop{id});
  }
  wake();
}

void Shard::run() {
  std::array<epoll_event, 64> events{};
  while (!stop_.load(std::memory_order_acquire)) {
    const auto now = Clock::now();
    const int n = ::epoll_wait(epoll_fd_.get(), events.data(),
                               static_cast<int>(events.size()),
                               poll_timeout_ms(now));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "epoll_wait");
    }
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == wake_fd_.get()) {
        std::uint64_t drained = 0;
        [[maybe_unused]] const ssize_t r =
            ::read(wake_fd_.get(), &drained, sizeof drained);
        drain_inbox();
        continue;
      }
      // The connection can vanish while handling an earlier bit of the same
      // event, so re-find it before every dispatch.
      if ((mask & (EPOLLHUP | EPOLLERR)) != 0) {
        close_connection(fd);
        continue;
      }
      if ((mask & EPOLLIN) != 0) {
        if (const auto it = connections_.find(fd); it != connections_.end()) {
          on_readable(*it->second);
        }
      }
      if ((mask & EPOLLOUT) != 0) {
        if (const auto it = connections_.find(fd); it != connections_.end()) {
          if (it->second->phase == LinkPhase::connecting) {
            on_connect_ready(*it->second);
          } else {
            on_writable(*it->second);
          }
        }
      }
    }
    const auto after = Clock::now();
    escalate_stalls(after);
    run_peering(after);
  }
}

void Shard::drain_inbox() {
  std::vector<Inbound> batch;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    batch.swap(inbox_);
  }
  for (Inbound& item : batch) {
    if (auto* adopt = std::get_if<Adopt>(&item)) {
      const int fd = adopt->fd.get();
      auto connection = std::make_unique<Connection>();
      connection->fd = std::move(adopt->fd);
      connection->id = adopt->id;
      connection->peer = std::move(adopt->peer);
      connection->jitter_rng.reseed(jitter_seed(config_.seed, adopt->id));
      // Accepted links classify their first bytes: a CONNECT banner makes
      // a peered neighbor, anything else is a raw frame client.
      connection->phase = LinkPhase::sniffing;
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.fd = fd;
      if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &ev) < 0) {
        shared_.peers.remove(adopt->id);
        continue;  // kicked out before it ever joined
      }
      peer_fd_[adopt->id] = fd;
      connections_[fd] = std::move(connection);
      bump(stats_.connections);
      continue;
    }
    if (auto* dialed = std::get_if<Dial>(&item)) {
      Dialer dialer;
      dialer.id = dialed->id;
      dialer.address = std::move(dialed->address);
      dialer.rng.reseed(jitter_seed(config_.seed, dialed->id));
      dialer.next_try = Clock::now();
      dialers_.push_back(std::move(dialer));
      try_dial(dialers_.back(), Clock::now());
      continue;
    }
    if (auto* dropped = std::get_if<Drop>(&item)) {
      int live_fd = -1;
      const auto dialer_it =
          std::find_if(dialers_.begin(), dialers_.end(),
                       [&](const Dialer& d) { return d.id == dropped->id; });
      if (dialer_it != dialers_.end()) {
        live_fd = dialer_it->fd;
        // Erase first so close_connection cannot re-arm the reconnect.
        dialers_.erase(dialer_it);
      } else if (const auto pf = peer_fd_.find(dropped->id);
                 pf != peer_fd_.end()) {
        live_fd = pf->second;
      }
      if (live_fd != -1) close_connection(live_fd);
      continue;
    }
    auto& frame = std::get<RelayFrame>(item);
    for (const NeighborId target : frame.targets) {
      Connection* connection = local_peer(target);
      if (connection == nullptr) {
        bump(stats_.relay_expired);
        continue;
      }
      enqueue(*connection, *frame.bytes);
      bump(stats_.relayed_in);
      if (frame.type == MessageType::kQuery) {
        bump(stats_.queries_relayed);
      } else if (frame.type == MessageType::kQueryHit) {
        bump(stats_.hits_relayed);
      }
    }
  }
}

void Shard::on_readable(Connection& connection) {
  const int fd = connection.fd.get();
  for (;;) {
    const IoResult r = read_some(fd, read_buffer_);
    if (r.status == IoStatus::would_block) break;
    if (r.status == IoStatus::closed) {
      close_connection(fd);
      return;
    }
    bump(stats_.bytes_in, r.n);
    if (connection.phase == LinkPhase::streaming) {
      feed_frames(connection, {read_buffer_.data(), r.n});
    } else {
      on_handshake_bytes(connection, {read_buffer_.data(), r.n});
    }
    // Either path can close the connection under us (handshake refusal, a
    // frame whose handling flushed into a dead socket).
    if (connections_.find(fd) == connections_.end()) return;
    if (r.n < read_buffer_.size()) break;  // drained the socket
  }
}

void Shard::feed_frames(Connection& connection,
                        std::span<const std::uint8_t> bytes) {
  const int fd = connection.fd.get();
  connection.decoder.feed(bytes);
  while (auto message = connection.decoder.next()) {
    handle_message(connection, *message);
    bump(stats_.processed);
    // Keepalive replies write back to the sender, so handling a message
    // can close this very connection; stop touching it if so.
    if (connections_.find(fd) == connections_.end()) return;
  }
  const std::uint64_t malformed = connection.decoder.malformed_frames();
  bump(stats_.malformed_frames, malformed - connection.malformed_reported);
  connection.malformed_reported = malformed;
}

void Shard::on_handshake_bytes(Connection& connection,
                               std::span<const std::uint8_t> bytes) {
  const int fd = connection.fd.get();
  switch (connection.scanner.feed(bytes)) {
    case HandshakeStatus::pending:
      return;
    case HandshakeStatus::raw:
      // A plain frame client: the accumulated bytes are ordinary frames.
      connection.phase = LinkPhase::streaming;
      feed_frames(connection, connection.scanner.leftover());
      return;
    case HandshakeStatus::accepted: {
      const bool inbound = connection.phase == LinkPhase::sniffing;
      establish(connection, Clock::now());
      if (inbound) {
        enqueue(connection, banner_bytes(kOkBanner));
        if (connections_.find(fd) == connections_.end()) return;
      }
      feed_frames(connection, connection.scanner.leftover());
      return;
    }
    case HandshakeStatus::refused:
      // Wrong dialect / version / oversized greeting: drop the link.  For
      // outbound links close_connection also schedules the re-dial.
      close_connection(fd);
      return;
  }
}

void Shard::establish(Connection& connection, Clock::time_point now) {
  connection.phase = LinkPhase::streaming;
  connection.peered = true;
  bump(stats_.peer_handshakes);
  if (connection.outbound_link) {
    // Dialed links join the roster only now: a half-open link must not
    // attract relay traffic.  (Accepted links are rostered at accept —
    // raw clients must be floodable before their first byte.)
    connection.peer =
        shared_.peers.add(connection.id, static_cast<std::uint32_t>(index_));
    peer_fd_[connection.id] = connection.fd.get();
    if (Dialer* dialer = dialer_for(connection.id)) dialer->attempt = 0;
  }
  if (config_.ping_interval_ms > 0) {
    connection.next_ping =
        now + std::chrono::milliseconds(config_.ping_interval_ms);
  }
}

const PeerList& Shard::roster() {
  const std::uint64_t version = shared_.peers.version();
  if (version != roster_version_) {
    roster_ = shared_.peers.list();
    roster_version_ = version;
  }
  return *roster_;
}

const RoutingSnapshot& Shard::routing() {
  const std::uint64_t version = shared_.hub->routing_version();
  if (version != routing_version_) {
    routing_ = shared_.hub->routing();
    routing_version_ = version;
  }
  return *routing_;
}

void Shard::mine_pair(const trace::QueryReplyPair& pair) {
  shared_.windows[index_].append(pair);
  bump(stats_.pairs_mined);
  if (shared_.archive != nullptr) {
    // Durable fold: +1 per observed pair into the lsm archive (its own
    // mutex — never the merge lock).  The archive is append-only history,
    // unlike the sliding mining window.
    shared_.archive->add(pair.source_host, pair.replying_neighbor, 1);
  }
  if (shared_.hub->note_pair()) {
    static obs::Timer& timer = obs::Registry::global().timer("node.merge");
    const obs::Timer::Scope scope(timer);
    shared_.hub->merge(shared_.windows, *shared_.peers.list());
  }
}

void Shard::handle_message(Connection& connection, const Message& message) {
  static obs::Timer& timer = obs::Registry::global().timer("node.process");
  const obs::Timer::Scope scope(timer);

  // Capture clock: the global frame count, one unique tick per message —
  // the old daemon's messages_in counter promoted to an atomic.
  const std::uint64_t tick =
      shared_.clock.fetch_add(1, std::memory_order_relaxed) + 1;
  bump(stats_.messages_in);
  const std::uint64_t guid = gnutella::fold_guid(message.header.guid);

  switch (message.header.type) {
    case MessageType::kQuery: {
      bump(stats_.queries_in);
      const PeerList& peers = roster();
      QueryTable::Stripe& stripe = shared_.queries.stripe(guid);
      std::unique_lock<std::mutex> lock(stripe.mu);
      const auto [it, fresh] = stripe.map.try_emplace(
          guid, QueryState{
                    .from = connection.id,
                    .key = gnutella::normalize_query(message.query.search),
                    .rule_routed = false,
                    .minable = false,
                });
      if (!fresh) {
        lock.unlock();
        bump(stats_.dropped);  // duplicate GUID
        return;
      }
      if (message.header.ttl <= 1) {
        // Route recorded (hits still relay on the reverse path), but an
        // expired query is not relayed and never joins a mined pair.
        lock.unlock();
        bump(stats_.dropped);
        return;
      }
      // Rule-first neighbor selection over the published snapshot; flood
      // when no rule matches or every rule target is dead or stalled — the
      // bottom rung of the ladder.  Decided under the stripe lock so a
      // racing hit for this GUID (possible only at full blast, where no
      // determinism is claimed) still reads a settled rule_routed flag.
      std::vector<NeighborId>& targets = target_scratch_;
      targets.clear();
      bool rule = false;
      const core::ForwardDecision forward =
          forwarder_.decide(routing().rules, connection.id, rng_);
      if (forward.rule_routed()) {
        for (const NeighborId target : forward.targets) {
          if (target == connection.id) continue;
          const std::shared_ptr<Peer>* peer = find_peer(peers, target);
          if (peer != nullptr &&
              !(*peer)->stalled.load(std::memory_order_relaxed)) {
            targets.push_back(target);
          }
        }
        if (!targets.empty()) {
          rule = true;
        } else {
          bump(stats_.degraded_floods);
        }
      }
      if (!rule) {
        for (const std::shared_ptr<Peer>& peer : peers) {
          if (peer->id != connection.id) targets.push_back(peer->id);
        }
      }
      bump(rule ? stats_.rule_routed : stats_.flooded);
      it->second.rule_routed = rule;
      it->second.minable = true;
      lock.unlock();
      dispatch(message, relay_header(message.header), peers, targets);
      return;
    }
    case MessageType::kQueryHit: {
      bump(stats_.hits_in);
      QueryState state;
      bool found = false;
      {
        QueryTable::Stripe& stripe = shared_.queries.stripe(guid);
        std::lock_guard<std::mutex> lock(stripe.mu);
        if (const auto it = stripe.map.find(guid); it != stripe.map.end()) {
          state = it->second;
          found = true;
        }
      }
      // Join against the outstanding query first: the pair feeds the miner
      // whether or not the reverse path is still relayable.
      if (found && state.minable) {
        mine_pair(trace::QueryReplyPair{
            .time = static_cast<double>(tick),
            .guid = guid,
            .source_host = state.from,
            .replying_neighbor = connection.id,
            .query = state.key,
        });
        if (state.rule_routed) bump(stats_.routed_hits);
      }
      if (!found || message.header.ttl <= 1) {
        bump(stats_.dropped);  // no reverse route / TTL expired
        return;
      }
      const PeerList& peers = roster();
      if (find_peer(peers, state.from) == nullptr) {
        bump(stats_.dropped);  // reverse path led to a departed neighbor
        return;
      }
      std::vector<NeighborId>& targets = target_scratch_;
      targets.clear();
      targets.push_back(state.from);
      dispatch(message, relay_header(message.header), peers, targets);
      return;
    }
    case MessageType::kPing: {
      bump(stats_.pings_in);
      const bool expired = message.header.ttl <= 1;
      if (connection.peered) {
        // A peered neighbor gets a direct Pong carrying our served-file
        // stats (docs/NODE.md "Peering") — keepalive pings travel with
        // TTL 1, so the reply is the only thing they produce.  Raw frame
        // clients keep the pre-peering behavior: flood, no Pong.
        const gnutella::Pong pong{
            .port = shared_.serving_port,
            .ip = 0x7f000001,  // 127.0.0.1; loopback-only serving for now
            .shared_files = static_cast<std::uint32_t>(
                stats_.hits_in.load(std::memory_order_relaxed)),
            .shared_kb = static_cast<std::uint32_t>(
                stats_.pairs_mined.load(std::memory_order_relaxed)),
        };
        const int fd = connection.fd.get();
        enqueue(connection, gnutella::serialize(gnutella::make_pong(
                                message.header.guid, 1, pong)));
        if (connections_.find(fd) == connections_.end()) return;
      }
      if (expired) {
        bump(stats_.dropped);
        return;
      }
      const PeerList& peers = roster();
      std::vector<NeighborId>& targets = target_scratch_;
      targets.clear();
      for (const std::shared_ptr<Peer>& peer : peers) {
        if (peer->id != connection.id) targets.push_back(peer->id);
      }
      dispatch(message, relay_header(message.header), peers, targets);
      return;
    }
    case MessageType::kPong:
      if (connection.peered) {
        // Keepalive answer: the link is alive, whatever ping it answers.
        bump(stats_.peer_pongs);
        if (connection.pings_outstanding > 0) {
          connection.pings_outstanding = 0;
          static obs::Timer& rtt =
              obs::Registry::global().timer("node.peer.rtt");
          rtt.record_ns(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  Clock::now() - connection.last_ping_sent)
                  .count()));
        }
        return;
      }
      bump(stats_.dropped);  // unrouted descriptors terminate here
      return;
    case MessageType::kPush:
      bump(stats_.dropped);  // unrouted descriptors terminate here
      return;
  }
}

void Shard::dispatch(const Message& message, const Header& header,
                     const PeerList& roster,
                     const std::vector<NeighborId>& targets) {
  if (targets.empty()) return;
  Message out = message;
  out.header = header;
  auto bytes =
      std::make_shared<const std::vector<std::uint8_t>>(serialize(out));

  // Group remote targets per owning shard; locals enqueue directly.
  std::vector<RelayFrame> remote(shared_.shards.size());
  for (const NeighborId target : targets) {
    const std::shared_ptr<Peer>* entry = find_peer(roster, target);
    if (entry == nullptr) continue;  // departed since the decision
    const std::uint32_t owner = (*entry)->shard;
    if (owner == index_) {
      Connection* connection = local_peer(target);
      if (connection == nullptr) continue;
      enqueue(*connection, *bytes);
      if (message.header.type == MessageType::kQuery) {
        bump(stats_.queries_relayed);
      } else if (message.header.type == MessageType::kQueryHit) {
        bump(stats_.hits_relayed);
      }
    } else {
      remote[owner].targets.push_back(target);
    }
  }
  for (std::size_t shard = 0; shard < remote.size(); ++shard) {
    if (remote[shard].targets.empty()) continue;
    remote[shard].bytes = bytes;
    remote[shard].type = message.header.type;
    shared_.shards[shard]->deliver(std::move(remote[shard]));
  }
}

void Shard::enqueue(Connection& connection,
                    std::span<const std::uint8_t> bytes) {
  if (connection.queued() + bytes.size() > config_.max_outbound) {
    // The peer stopped draining long enough to fill its budget: drop the
    // frame and keep the stall clock running so the ladder can escalate.
    if (!connection.stalled) {
      set_stalled(connection, true);
      connection.attempt = 0;
      connection.stall_start = Clock::now();
      connection.retry_at =
          connection.stall_start +
          std::chrono::milliseconds(
              ladder_.delay_ms(0, connection.jitter_rng));
    }
    return;
  }
  connection.outbound.insert(connection.outbound.end(), bytes.begin(),
                             bytes.end());
  flush(connection);
}

void Shard::flush(Connection& connection) {
  const int fd = connection.fd.get();
  while (connection.queued() > 0) {
    const IoResult r =
        write_some(fd, {connection.outbound.data() + connection.out_off,
                        connection.queued()});
    if (r.status == IoStatus::closed) {
      close_connection(fd);
      return;  // `connection` is gone
    }
    if (r.status == IoStatus::would_block || r.n == 0) break;
    connection.out_off += r.n;
    bump(stats_.bytes_out, r.n);
  }
  if (connection.queued() == 0) {
    connection.outbound.clear();
    connection.out_off = 0;
    if (connection.stalled) {
      set_stalled(connection, false);
      connection.attempt = 0;
    }
    want_writable(connection, false);
    return;
  }
  // Partial write: reclaim the drained prefix occasionally and arm the
  // ladder if this is a fresh stall.
  if (connection.out_off > kReadChunk) {
    connection.outbound.erase(
        connection.outbound.begin(),
        connection.outbound.begin() +
            static_cast<std::ptrdiff_t>(connection.out_off));
    connection.out_off = 0;
  }
  if (!connection.stalled) {
    set_stalled(connection, true);
    connection.attempt = 0;
    connection.stall_start = Clock::now();
    connection.retry_at =
        connection.stall_start +
        std::chrono::milliseconds(ladder_.delay_ms(0, connection.jitter_rng));
  }
  want_writable(connection, true);
}

void Shard::set_stalled(Connection& connection, bool stalled) {
  connection.stalled = stalled;
  if (connection.peer) {
    connection.peer->stalled.store(stalled, std::memory_order_relaxed);
  }
}

void Shard::escalate_stalls(Clock::time_point now) {
  std::vector<int> stalled;
  for (const auto& [fd, connection] : connections_) {
    if (connection->stalled) stalled.push_back(fd);
  }
  for (const int fd : stalled) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& connection = *it->second;
    if (!connection.stalled || now < connection.retry_at) continue;
    if (ladder_.exhausted(connection.attempt) ||
        elapsed_ms(now - connection.stall_start) >= config_.send_timeout_ms) {
      // Ladder exhausted: the peer is dead.  Its rules are purged with the
      // connection, so traffic it used to attract floods again.
      bump(stats_.send_timeouts);
      close_connection(fd);
      continue;
    }
    bump(stats_.send_retries);
    ++connection.attempt;
    flush(connection);
    const auto again = connections_.find(fd);
    if (again == connections_.end() || !again->second->stalled) continue;
    again->second->retry_at =
        now + std::chrono::milliseconds(ladder_.delay_ms(
                  again->second->attempt, again->second->jitter_rng));
  }
}

void Shard::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  Connection& connection = *it->second;
  (void)::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr);
  stats_.connections.fetch_sub(1, std::memory_order_relaxed);
  peer_fd_.erase(connection.id);
  // Outbound links that never finished their handshake were never in the
  // roster: nothing to purge and no disconnect to report (a refused dial
  // is a reconnect, not a disconnect).
  const bool rostered =
      !connection.outbound_link || connection.phase == LinkPhase::streaming;
  if (rostered) {
    bump(stats_.disconnects);
    shared_.peers.remove(connection.id);
    // A departed neighbor's pairs would keep routing queries at a dead
    // socket; purge them from the published snapshot immediately (its
    // pairs still pending on any shard are dropped at the next merge).
    shared_.hub->purge(connection.id);
  }
  if (connection.outbound_link) {
    // Keep the link dialed: deterministic per-id jitter, doubling backoff.
    if (Dialer* dialer = dialer_for(connection.id)) {
      dialer->fd = -1;
      dialer->next_try =
          Clock::now() + std::chrono::milliseconds(ladder_.delay_ms(
                             dialer->attempt, dialer->rng));
      if (dialer->attempt < 16) ++dialer->attempt;
    }
  }
  connections_.erase(it);
}

Shard::Dialer* Shard::dialer_for(NeighborId id) {
  for (Dialer& dialer : dialers_) {
    if (dialer.id == id) return &dialer;
  }
  return nullptr;
}

void Shard::try_dial(Dialer& dialer, Clock::time_point now) {
  bool in_progress = false;
  Fd fd = connect_tcp_async(dialer.address.host, dialer.address.port,
                            in_progress);
  const auto reschedule = [&] {
    dialer.next_try = now + std::chrono::milliseconds(
                                ladder_.delay_ms(dialer.attempt, dialer.rng));
    if (dialer.attempt < 16) ++dialer.attempt;
  };
  if (!fd.valid()) {
    reschedule();
    return;
  }
  if (config_.send_buffer > 0) set_send_buffer(fd.get(), config_.send_buffer);
  const int raw = fd.get();
  auto connection = std::make_unique<Connection>();
  connection->fd = std::move(fd);
  connection->id = dialer.id;
  connection->jitter_rng.reseed(jitter_seed(config_.seed, dialer.id));
  connection->outbound_link = true;
  connection->phase =
      in_progress ? LinkPhase::connecting : LinkPhase::greeting;
  connection->scanner = BannerScanner(BannerScanner::Mode::dialer);
  epoll_event ev{};
  ev.events = EPOLLIN | (in_progress ? EPOLLOUT : 0u);
  ev.data.fd = raw;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, raw, &ev) < 0) {
    reschedule();
    return;
  }
  connection->want_out = in_progress;
  dialer.fd = raw;
  connections_[raw] = std::move(connection);
  bump(stats_.connections);
  if (!in_progress) {
    Connection& live = *connections_[raw];
    enqueue(live, banner_bytes(kConnectBanner));
  }
}

void Shard::on_connect_ready(Connection& connection) {
  const int fd = connection.fd.get();
  if (socket_error(fd) != 0) {
    close_connection(fd);  // dial failed; the reconnect schedule takes over
    return;
  }
  connection.phase = LinkPhase::greeting;
  enqueue(connection, banner_bytes(kConnectBanner));
}

void Shard::send_keepalive_ping(Connection& connection,
                                Clock::time_point now) {
  ++connection.ping_counter;
  // A GUID sequence private to this link: keepalive pings never collide
  // with relay traffic or another link's probes.
  const gnutella::WireGuid guid = gnutella::make_wire_guid(
      jitter_seed(config_.seed ^ 0x70656572ULL, connection.id) +
      connection.ping_counter);
  ++connection.pings_outstanding;
  connection.last_ping_sent = now;
  connection.next_ping =
      now + std::chrono::milliseconds(config_.ping_interval_ms);
  // TTL 1: a keepalive probes the link, not the overlay — the peer answers
  // with a Pong and relays nothing.
  enqueue(connection, gnutella::serialize(gnutella::make_ping(guid, 1)));
}

void Shard::run_peering(Clock::time_point now) {
  for (Dialer& dialer : dialers_) {
    if (dialer.fd != -1 || now < dialer.next_try) continue;
    if (dialer.attempt > 0) bump(stats_.peer_reconnects);
    try_dial(dialer, now);
  }
  if (config_.ping_interval_ms == 0) return;
  std::vector<int> peered;
  for (const auto& [fd, connection] : connections_) {
    if (connection->phase == LinkPhase::streaming && connection->peered) {
      peered.push_back(fd);
    }
  }
  for (const int fd : peered) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) continue;
    Connection& connection = *it->second;
    if (connection.next_ping.time_since_epoch().count() == 0 ||
        now < connection.next_ping) {
      continue;
    }
    if (connection.pings_outstanding > 0) {
      bump(stats_.peer_missed);
      if (connection.pings_outstanding >= config_.pong_budget) {
        // The missed-pong budget is spent: declare the link dead.
        // close_connection purges its rules from the published snapshot
        // and, for outbound links, schedules the re-dial.
        close_connection(fd);
        continue;
      }
    }
    send_keepalive_ping(connection, now);
  }
}

void Shard::want_writable(Connection& connection, bool enable) {
  if (connection.want_out == enable) return;
  epoll_event ev{};
  ev.events = EPOLLIN | (enable ? EPOLLOUT : 0u);
  ev.data.fd = connection.fd.get();
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, connection.fd.get(), &ev) ==
      0) {
    connection.want_out = enable;
  }
}

int Shard::poll_timeout_ms(Clock::time_point now) const {
  std::uint32_t timeout = 200;  // stop latency bound when idle
  const auto consider = [&](Clock::time_point deadline) {
    const std::uint32_t wait =
        deadline <= now ? 0 : elapsed_ms(deadline - now);
    timeout = std::min(timeout, wait);
  };
  for (const auto& [fd, connection] : connections_) {
    if (connection->stalled) consider(connection->retry_at);
    if (connection->peered &&
        connection->next_ping.time_since_epoch().count() != 0) {
      consider(connection->next_ping);
    }
  }
  for (const Dialer& dialer : dialers_) {
    if (dialer.fd == -1) consider(dialer.next_try);
  }
  return static_cast<int>(timeout);
}

Shard::Connection* Shard::local_peer(NeighborId id) {
  const auto fd = peer_fd_.find(id);
  if (fd == peer_fd_.end()) return nullptr;
  const auto it = connections_.find(fd->second);
  return it == connections_.end() ? nullptr : it->second.get();
}

}  // namespace aar::node
