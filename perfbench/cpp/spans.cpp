#include "spans.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::optional<double> percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::nullopt;
  q = std::clamp(q, 0.0, 100.0);
  // Nearest rank: the smallest value with at least q% of the sample at or
  // below it (rank 1 for q = 0).
  const double n = static_cast<double>(values.size());
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  const auto nth = values.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(values.begin(), nth, values.end());
  return *nth;
}

std::optional<double> median(std::vector<double> values) {
  if (values.empty()) return std::nullopt;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

SpanRecorder::Scope::Scope(SpanRecorder& recorder, const char* name,
                           std::uint64_t request)
    : recorder_(&recorder) {
  if (!recorder.enabled_) return;
  index_ = static_cast<std::int32_t>(recorder.spans_.size());
  recorder.spans_.push_back(Span{.name = name,
                                 .start_ns = now_ns(),
                                 .end_ns = 0,
                                 .parent = recorder.open_,
                                 .request = request});
  recorder.open_ = index_;
}

SpanRecorder::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = recorder_->spans_[static_cast<std::size_t>(index_)];
  span.end_ns = now_ns();
  recorder_->open_ = span.parent;
}

void SpanRecorder::record(const char* name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::uint64_t request) {
  if (!enabled_) return;
  spans_.push_back(Span{.name = name,
                        .start_ns = start_ns,
                        .end_ns = end_ns,
                        .parent = open_,
                        .request = request});
}

std::vector<std::uint64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(span.parent);
    if (parent >= spans.size()) throw std::out_of_range("span parent");
    children[parent].emplace_back(span.start_ns, span.end_ns);
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.end_ns <= span.start_ns) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = span.start_ns;  // covered up to here
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, span.end_ns);
      if (end <= start) continue;
      covered += end - start;
      cursor = end;
    }
    self[i] = span.end_ns - span.start_ns - covered;
  }
  return self;
}

std::map<std::string, LayerTime> SpanRecorder::layer_times() const {
  const std::vector<std::uint64_t> self = self_times(spans_);
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTime& layer = out[spans_[i].name];
    ++layer.spans;
    if (spans_[i].end_ns > spans_[i].start_ns) {
      layer.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    }
    layer.self_ns += self[i];
  }
  return out;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  out << "index\tparent\tname\trequest\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << i << '\t' << span.parent << '\t' << span.name << '\t'
        << span.request << '\t' << span.start_ns << '\t' << span.end_ns
        << '\n';
  }
}

}  // namespace perfbench
