#pragma once
// The benchmark's causal open-loop load generator for `aar_node serve`.
//
// One sender thread offers queries on a fixed schedule over `connections`
// loopback sockets (all due frames of a connection go out in one write per
// tick) and one receiver/responder thread reads every socket.  A query may
// have an answering host whose "home" is one of the other connections; the
// responder sends the QueryHit on that connection only after the relayed
// query has arrived there, so a hit never overtakes its query.  Each query
// is timed from when it was due, not from when it was sent.
//
// Every received frame is checked: relayed copies must carry TTL-1 and
// hops+1, hits must come back on the query's origin connection, and the
// stream must decode without malformed frames.

#include <cstdint>
#include <memory>
#include <vector>

#include "spans.hpp"

namespace perfbench {

struct StepConfig {
  double rate_qps = 1000.0;
  double seconds = 1.0;
  std::size_t query_bytes = 12;  ///< search string length
  double answer_share = 1.0;     ///< P(query has an answering host)
  /// Relative weights of the answering host's home among the other
  /// connections, by offset 1, 2, 3 from the origin (mod connections).
  std::vector<double> home_weights{0.80, 0.15, 0.05};
  std::uint64_t seed = 1;
  std::uint32_t step = 0;  ///< GUID nonce: frames of older steps are ignored
  std::uint8_t ttl = 7;
  double drain_ms = 1000.0;  ///< max wait for answers after the schedule
  bool trace = false;       ///< record spans around generator calls
  bool capture = false;     ///< keep the sent frames for offline replay
};

/// A frame the generator sent, in send order (the offline replay input).
struct CapturedFrame {
  std::uint32_t link = 0;  ///< connection index (daemon id = link + 1)
  std::uint64_t sent_ns = 0;
  std::vector<std::uint8_t> bytes;
};

struct StepResult {
  std::uint64_t queries = 0;       ///< queries offered
  std::uint64_t queries_sent = 0;  ///< queries written before the deadline
  std::uint64_t answerable = 0;    ///< queries with an answering host
  std::uint64_t hits_sent = 0;     ///< relayed query reached home, hit sent
  std::uint64_t answered = 0;      ///< hit returned on the origin connection
  std::uint64_t ttl_violations = 0;
  std::uint64_t malformed = 0;     ///< undecodable frames and foreign GUIDs
  std::uint64_t misdelivered = 0;  ///< hit on a connection but its origin
  std::uint64_t echoed = 0;        ///< query relayed back to its origin
  std::uint64_t duplicate_hits = 0;
  /// Queries with a frame that failed a check: a TTL-1/hops+1 violation,
  /// a copy relayed back to its origin, or a hit on another connection.
  std::uint64_t failed_queries = 0;
  /// failed_queries plus queries whose hit was sent but never came back to
  /// the origin, or came back twice.
  std::uint64_t failed_queries_with_losses = 0;
  std::uint64_t backlog_queries = 0;  ///< due but unsent at schedule end
  double lateness_ms_p99 = 0.0;       ///< send time - due time
  /// Query -> hit latency (ms from due time) for every query whose hit was
  /// sent; +inf for an answer that never came back.
  std::vector<double> latency_ms;
  std::vector<double> latency_due_s;  ///< each sample's due time in the step
  std::vector<CapturedFrame> captured;  ///< only with StepConfig::capture
  std::vector<Span> sender_spans;       ///< only with StepConfig::trace
  std::vector<Span> receiver_spans;

  [[nodiscard]] std::uint64_t lost_answers() const noexcept {
    return hits_sent - answered;
  }
  /// Queries and hits written; each count has a single writer thread.
  [[nodiscard]] std::uint64_t frames_sent() const noexcept {
    return queries_sent + hits_sent;
  }
};

class Generator {
 public:
  /// Connects `connections` sockets to the daemon at `port`, one after the
  /// other, then waits until every one is on the daemon's roster (a ping
  /// sent on the last connection arrives on all others).
  Generator(std::uint16_t port, std::size_t connections);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  [[nodiscard]] StepResult run_step(const StepConfig& config);
  [[nodiscard]] std::size_t connections() const noexcept {
    return links_.size();
  }

  struct Link;

 private:
  std::vector<std::unique_ptr<Link>> links_;
  std::uint32_t barrier_round_ = 0;
};

}  // namespace perfbench
