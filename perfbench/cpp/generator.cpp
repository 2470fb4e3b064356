#include "generator.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>

#include "bench.hpp"
#include "gnutella/codec.hpp"

namespace perfbench {

using namespace aar;

using gnutella::Message;
using gnutella::MessageType;
using gnutella::WireGuid;

struct Generator::Link {
  int fd = -1;
  std::mutex send_mu;  ///< one writer at a time: frames never interleave
  gnutella::FrameDecoder decoder;  ///< receiver thread only
  std::uint64_t malformed_seen = 0;

  ~Link() {
    if (fd >= 0) ::close(fd);
  }
};

namespace {

constexpr std::uint32_t kMagic = 0x4e454250;  // "PBEN"
constexpr std::uint32_t kBarrierStep = 0xffffffff;

WireGuid make_guid(std::uint64_t seq, std::uint32_t step) {
  WireGuid guid{};
  std::memcpy(guid.data(), &seq, 8);
  std::memcpy(guid.data() + 8, &step, 4);
  std::memcpy(guid.data() + 12, &kMagic, 4);
  return guid;
}

/// (seq, step) of a benchmark GUID; false for a foreign GUID.
bool parse_guid(const WireGuid& guid, std::uint64_t& seq, std::uint32_t& step) {
  std::uint32_t magic = 0;
  std::memcpy(&magic, guid.data() + 12, 4);
  if (magic != kMagic) return false;
  std::memcpy(&seq, guid.data(), 8);
  std::memcpy(&step, guid.data() + 8, 4);
  return true;
}

/// Write all of `size` bytes as one frame batch; holds the link's send lock
/// throughout so the other thread's frames cannot interleave mid-frame.
void send_all(Generator::Link& link, const std::uint8_t* data,
              std::size_t size) {
  const std::lock_guard<std::mutex> lock(link.send_mu);
  std::size_t offset = 0;
  while (offset < size) {
    const ssize_t n = ::send(link.fd, data + offset, size - offset,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      offset += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd waiter{.fd = link.fd, .events = POLLOUT, .revents = 0};
      (void)::poll(&waiter, 1, 10);
      continue;
    }
    throw std::system_error(errno, std::generic_category(), "generator send");
  }
}

std::string query_text(std::uint64_t& state, std::size_t length) {
  static constexpr char kAlphabet[] = "abcdefghijklmnopqrstuvwxyz0123456789 ";
  std::string text(length, 'a');
  for (char& c : text) c = kAlphabet[splitmix(state) % (sizeof kAlphabet - 1)];
  text.front() = 'q';
  text.back() = 'z';
  return text;
}

}  // namespace

Generator::Generator(std::uint16_t port, std::size_t connections) {
  if (connections < 2) throw std::invalid_argument("need >= 2 connections");
  for (std::size_t i = 0; i < connections; ++i) {
    auto link = std::make_unique<Link>();
    link->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (link->fd < 0) throw std::system_error(errno, std::generic_category(), "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(link->fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      throw std::system_error(errno, std::generic_category(), "connect");
    }
    const int one = 1;
    ::setsockopt(link->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    links_.push_back(std::move(link));
  }

  // Roster barrier: a ping on the last connection is flooded to every
  // connection already on the roster; retry until all of them see it.
  for (int attempt = 0; attempt < 50; ++attempt) {
    const WireGuid guid = make_guid(++barrier_round_, kBarrierStep);
    const std::vector<std::uint8_t> ping =
        gnutella::serialize(gnutella::make_ping(guid, 2));
    send_all(*links_.back(), ping.data(), ping.size());
    std::vector<bool> seen(links_.size() - 1, false);
    const std::uint64_t deadline = now_ns() + 200'000'000;
    std::uint8_t buffer[4096];
    while (now_ns() < deadline &&
           std::find(seen.begin(), seen.end(), false) != seen.end()) {
      for (std::size_t i = 0; i + 1 < links_.size(); ++i) {
        Link& link = *links_[i];
        const ssize_t n = ::recv(link.fd, buffer, sizeof buffer, MSG_DONTWAIT);
        if (n <= 0) continue;
        link.decoder.feed({buffer, static_cast<std::size_t>(n)});
        while (const std::optional<Message> message = link.decoder.next()) {
          if (message->header.type == MessageType::kPing &&
              message->header.guid == guid) {
            seen[i] = true;
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    if (std::find(seen.begin(), seen.end(), false) == seen.end()) return;
  }
  throw std::runtime_error("roster barrier: daemon never flooded the ping");
}

Generator::~Generator() = default;

StepResult Generator::run_step(const StepConfig& config) {
  const std::size_t links = links_.size();
  const auto n = static_cast<std::size_t>(
      std::llround(config.rate_qps * config.seconds));
  if (n == 0) throw std::invalid_argument("step offers no queries");
  if (config.home_weights.size() + 1 != links) {
    throw std::invalid_argument("home weights must cover every other link");
  }
  double weight_sum = 0.0;
  for (const double w : config.home_weights) weight_sum += w;

  // ---- Inputs: schedule, answering homes, and per-link frame bytes.
  std::uint64_t rng = config.seed * 0x2545f4914f6cdd1dULL + config.step;
  std::vector<std::uint8_t> origin(n);
  std::vector<std::int8_t> home(n, -1);
  std::vector<std::uint64_t> due(n);  // ns after the schedule start
  const double interval_ns = 1e9 / config.rate_qps;
  struct LinkQueue {
    std::vector<std::uint8_t> bytes;
    std::vector<std::size_t> ends;  ///< end offset of each frame
    std::vector<std::uint32_t> seqs;
  };
  std::vector<LinkQueue> queues(links);
  StepResult result;
  result.queries = n;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = static_cast<std::uint64_t>(static_cast<double>(i) * interval_ns);
    origin[i] = static_cast<std::uint8_t>(splitmix(rng) % links);
    if (uniform(rng) < config.answer_share) {
      double pick = uniform(rng) * weight_sum;
      std::size_t offset = 0;
      while (offset + 1 < config.home_weights.size() &&
             pick >= config.home_weights[offset]) {
        pick -= config.home_weights[offset];
        ++offset;
      }
      home[i] = static_cast<std::int8_t>((origin[i] + offset + 1) % links);
      ++result.answerable;
    }
    const std::size_t length =
        config.query_bytes > 8
            ? config.query_bytes - config.query_bytes / 4 +
                  splitmix(rng) % (config.query_bytes / 2 + 1)
            : config.query_bytes;
    const std::vector<std::uint8_t> frame = gnutella::serialize(
        gnutella::make_query(make_guid(i, config.step), config.ttl, 0,
                             query_text(rng, std::max<std::size_t>(length, 2))));
    LinkQueue& queue = queues[origin[i]];
    queue.bytes.insert(queue.bytes.end(), frame.begin(), frame.end());
    queue.ends.push_back(queue.bytes.size());
    queue.seqs.push_back(static_cast<std::uint32_t>(i));
  }
  const WireGuid servent = make_guid(0, 0);
  const std::vector<std::uint8_t> hit_template =
      gnutella::serialize(gnutella::make_query_hit(
          servent, config.ttl, servent,
          {gnutella::HitResult{.file_index = 1,
                               .file_size = 4096,
                               .file_name = "result.bin"}}));

  std::vector<std::uint64_t> sent_ns(n, 0);
  std::vector<std::uint64_t> hit_ns(n, 0);
  std::vector<std::uint64_t> answer_ns(n, 0);
  std::vector<std::uint8_t> relayed_to(n * links, 0);
  std::vector<std::uint8_t> broken(n, 0);      // a frame of it failed a check
  std::vector<std::uint8_t> duplicated(n, 0);  // its hit came back twice
  std::atomic<bool> sender_done{false};
  std::atomic<std::uint64_t> sender_done_ns{0};
  SpanRecorder sender_spans(config.trace);
  SpanRecorder receiver_spans(config.trace);
  std::vector<CapturedFrame> captured_hits;
  const std::uint64_t start = now_ns() + 2'000'000;

  // ---- Receiver / responder.
  std::exception_ptr receiver_error;
  std::thread receiver([&] {
    try {
      const int epoll = ::epoll_create1(EPOLL_CLOEXEC);
      if (epoll < 0) throw std::system_error(errno, std::generic_category(), "epoll");
      for (std::size_t i = 0; i < links; ++i) {
        epoll_event event{};
        event.events = EPOLLIN;
        event.data.u64 = i;
        ::epoll_ctl(epoll, EPOLL_CTL_ADD, links_[i]->fd, &event);
      }
      std::vector<std::vector<std::uint8_t>> replies(links);
      std::vector<std::uint8_t> buffer(1 << 16);
      std::uint64_t last_frame = now_ns();
      std::uint64_t answered_count = 0;  // answers to hits already written
      epoll_event events[8];
      while (true) {
        const int ready = ::epoll_wait(epoll, events, 8, 1);
        const std::uint64_t now = now_ns();
        if (ready <= 0) {
          if (sender_done.load(std::memory_order_acquire)) {
            // Done when every hit sent has come back and the daemon has been
            // quiet for a while (relays still queued would break the quiet),
            // or when the drain budget is spent.
            const std::uint64_t done = sender_done_ns.load();
            const bool settled = result.hits_sent == answered_count &&
                                 now > done && now - last_frame > 50'000'000;
            if (settled || now > done + static_cast<std::uint64_t>(config.drain_ms * 1e6)) {
              break;
            }
          }
          continue;
        }
        for (int e = 0; e < ready; ++e) {
          const auto index = static_cast<std::size_t>(events[e].data.u64);
          Link& link = *links_[index];
          while (true) {
            const ssize_t got = ::recv(link.fd, buffer.data(), buffer.size(),
                                       MSG_DONTWAIT);
            if (got < 0 && errno == EINTR) continue;
            if (got == 0) throw std::runtime_error("daemon closed a connection");
            if (got < 0) break;
            last_frame = now_ns();
            {
              const auto span = receiver_spans.scope("gnutella.decode");
              link.decoder.feed({buffer.data(), static_cast<std::size_t>(got)});
            }
            while (true) {
              std::optional<Message> message;
              {
                const auto span = receiver_spans.scope("gnutella.decode");
                message = link.decoder.next();
              }
              if (!message) break;
              const MessageType type = message->header.type;
              if (type != MessageType::kQuery && type != MessageType::kQueryHit) {
                continue;  // barrier pings and the like
              }
              std::uint64_t seq = 0;
              std::uint32_t step = 0;
              if (!parse_guid(message->header.guid, seq, step) ||
                  (step == config.step && seq >= n)) {
                ++result.malformed;
                continue;
              }
              if (step != config.step) continue;  // an earlier step's straggler
              if (message->header.ttl != config.ttl - 1 ||
                  message->header.hops != 1) {
                ++result.ttl_violations;
                broken[seq] = 1;
              }
              if (type == MessageType::kQuery) {
                if (origin[seq] == index) {
                  ++result.echoed;
                  broken[seq] = 1;
                }
                std::uint8_t& seen = relayed_to[seq * links + index];
                if (seen++ != 0) continue;
                if (home[seq] == static_cast<std::int8_t>(index) && hit_ns[seq] == 0) {
                  std::vector<std::uint8_t>& out = replies[index];
                  const std::size_t at = out.size();
                  out.insert(out.end(), hit_template.begin(), hit_template.end());
                  std::memcpy(out.data() + at, message->header.guid.data(), 16);
                  hit_ns[seq] = 1;  // marked; stamped when written
                }
              } else if (origin[seq] == index) {
                if (answer_ns[seq] != 0) {
                  ++result.duplicate_hits;
                  duplicated[seq] = 1;
                } else {
                  answer_ns[seq] = now_ns();
                  if (hit_ns[seq] > 1) ++answered_count;
                }
              } else {
                ++result.misdelivered;
                broken[seq] = 1;
              }
            }
          }
          const std::uint64_t malformed = link.decoder.malformed_frames();
          result.malformed += malformed - link.malformed_seen;
          link.malformed_seen = malformed;
        }
        for (std::size_t i = 0; i < links; ++i) {
          std::vector<std::uint8_t>& out = replies[i];
          if (out.empty()) continue;
          {
            const auto span = receiver_spans.scope("gen.send_hits");
            send_all(*links_[i], out.data(), out.size());
          }
          const std::uint64_t written = now_ns();
          for (std::size_t at = 0; at < out.size(); at += hit_template.size()) {
            std::uint64_t seq = 0;
            std::memcpy(&seq, out.data() + at, 8);
            hit_ns[seq] = written;
            ++result.hits_sent;
            if (config.capture) {
              captured_hits.push_back(CapturedFrame{
                  .link = static_cast<std::uint32_t>(i),
                  .sent_ns = written,
                  .bytes = std::vector<std::uint8_t>(
                      out.begin() + static_cast<std::ptrdiff_t>(at),
                      out.begin() + static_cast<std::ptrdiff_t>(at + hit_template.size()))});
            }
          }
          out.clear();
        }
      }
      ::close(epoll);
    } catch (...) {
      receiver_error = std::current_exception();
    }
  });

  // ---- Sender (this thread): all due frames of a link in one write.
  std::vector<std::size_t> next(links, 0);
  std::vector<double> lateness_ms;
  lateness_ms.reserve(n);
  const std::uint64_t give_up =
      start + static_cast<std::uint64_t>((config.seconds + 2.0) * 1e9);
  std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(start)));
  try {
    while (true) {
      const std::uint64_t now = now_ns();
      if (now > give_up) break;  // the daemon stopped reading
      bool pending = false;
      std::uint64_t next_due = std::numeric_limits<std::uint64_t>::max();
      for (std::size_t l = 0; l < links; ++l) {
        LinkQueue& queue = queues[l];
        std::size_t first = next[l];
        std::size_t last = first;
        while (last < queue.seqs.size() && start + due[queue.seqs[last]] <= now) ++last;
        if (last > first) {
          const std::size_t from = first == 0 ? 0 : queue.ends[first - 1];
          const std::size_t to = queue.ends[last - 1];
          {
            const auto span = sender_spans.scope(
                "gen.send_queries",
                gnutella::fold_guid(make_guid(queue.seqs[first], config.step)));
            send_all(*links_[l], queue.bytes.data() + from, to - from);
          }
          const std::uint64_t written = now_ns();
          for (std::size_t k = first; k < last; ++k) {
            const std::uint32_t seq = queue.seqs[k];
            sent_ns[seq] = written;
            lateness_ms.push_back(
                static_cast<double>(written - (start + due[seq])) / 1e6);
          }
          result.queries_sent += last - first;
          next[l] = last;
        }
        if (last < queue.seqs.size()) {
          pending = true;
          next_due = std::min(next_due, start + due[queue.seqs[last]]);
        }
      }
      if (!pending) break;
      if (next_due > now_ns()) {
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(next_due)));
      }
    }
  } catch (...) {
    sender_done_ns.store(now_ns());
    sender_done.store(true, std::memory_order_release);
    receiver.join();
    throw;
  }
  sender_done_ns.store(now_ns());
  sender_done.store(true, std::memory_order_release);
  receiver.join();
  if (receiver_error) std::rethrow_exception(receiver_error);

  // ---- Per-query outcomes.
  const std::uint64_t schedule_end = start + due[n - 1];
  for (std::size_t i = 0; i < n; ++i) {
    if (sent_ns[i] == 0 || sent_ns[i] > schedule_end + 1'000'000) {
      ++result.backlog_queries;
    }
    const bool lost = hit_ns[i] != 0 && answer_ns[i] == 0;
    result.failed_queries += broken[i];
    result.failed_queries_with_losses += broken[i] != 0 || duplicated[i] != 0 || lost;
    if (hit_ns[i] == 0) continue;
    result.latency_due_s.push_back(static_cast<double>(due[i]) / 1e9);
    if (answer_ns[i] != 0) {
      ++result.answered;
      result.latency_ms.push_back(
          static_cast<double>(answer_ns[i] - (start + due[i])) / 1e6);
    } else {
      result.latency_ms.push_back(std::numeric_limits<double>::infinity());
    }
  }
  result.lateness_ms_p99 = percentile(lateness_ms, 99.0).value_or(0.0);

  if (config.capture) {
    for (std::size_t l = 0; l < links; ++l) {
      const LinkQueue& queue = queues[l];
      for (std::size_t k = 0; k < queue.seqs.size(); ++k) {
        const std::uint32_t seq = queue.seqs[k];
        if (sent_ns[seq] == 0) continue;
        const std::size_t from = k == 0 ? 0 : queue.ends[k - 1];
        result.captured.push_back(CapturedFrame{
            .link = static_cast<std::uint32_t>(l),
            .sent_ns = sent_ns[seq],
            .bytes = std::vector<std::uint8_t>(
                queue.bytes.begin() + static_cast<std::ptrdiff_t>(from),
                queue.bytes.begin() + static_cast<std::ptrdiff_t>(queue.ends[k]))});
      }
    }
    result.captured.insert(result.captured.end(),
                           std::make_move_iterator(captured_hits.begin()),
                           std::make_move_iterator(captured_hits.end()));
    std::stable_sort(result.captured.begin(), result.captured.end(),
                     [](const CapturedFrame& a, const CapturedFrame& b) {
                       return a.sent_ns < b.sent_ns;
                     });
  }
  result.sender_spans = sender_spans.spans();
  result.receiver_spans = receiver_spans.spans();
  return result;
}

}  // namespace perfbench
