#pragma once
// Span recorder, self-time computation and percentile helper for the
// benchmark's traced runs.
//
// Spans are recorded in memory around each call the benchmark makes into a
// layer of the program (name, start, end, parent span, request id) and
// written out when the run ends.  A layer's self time is its spans'
// durations minus the part of each interval covered by child spans.

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank percentile (q in [0, 100]) of `values`; nullopt when empty.
/// The sample is copied and partially sorted, so callers keep their order.
[[nodiscard]] std::optional<double> percentile(std::vector<double> values,
                                               double q);

/// Median of `values` (the mean of the two middle values for an even
/// count); nullopt when empty.
[[nodiscard]] std::optional<double> median(std::vector<double> values);

struct Span {
  const char* name = "";  ///< static string: the layer call
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index into the same recorder, -1 = root
  std::uint64_t request = 0;  ///< request id (query GUID fold), 0 = none
};

struct LayerTime {
  std::uint64_t spans = 0;
  std::uint64_t total_ns = 0;  ///< sum of span durations
  std::uint64_t self_ns = 0;   ///< durations minus child-covered time
};

/// Single-thread span recorder.  A disabled recorder records nothing and
/// its scopes cost one branch, so untraced runs share the traced code path.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled = true) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(SpanRecorder& recorder, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::int32_t index_ = -1;
  };

  [[nodiscard]] Scope scope(const char* name, std::uint64_t request = 0) {
    return Scope(*this, name, request);
  }

  /// Record a finished span directly (parent = the currently open span).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint64_t request = 0);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Per-name span count, total and self time.
  [[nodiscard]] std::map<std::string, LayerTime> layer_times() const;

  /// Tab-separated dump: index, parent, name, request, start_ns, end_ns.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

/// Self time of every span in `spans`: its duration minus the union of its
/// children's intervals clipped to its own.  Children are the spans whose
/// `parent` names it; spans may be in any order.
[[nodiscard]] std::vector<std::uint64_t> self_times(
    const std::vector<Span>& spans);

}  // namespace perfbench
