// Self-tests of the benchmark's own helpers: span self time (nested and
// overlapping children) and percentiles on small and empty samples.
// Run with `perfbench selftest` (also registered as a CTest in this
// directory's build).

#include <cmath>
#include <limits>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "selftest FAILED: " << what << "\n";
  }
}

void test_self_time() {
  // root [0,100) with children [10,30) and [20,50) (overlapping) and a
  // grandchild [12,18) inside the first child.
  std::vector<Span> spans{
      {.name = "root", .start_ns = 0, .end_ns = 100, .parent = -1, .request = 1},
      {.name = "a", .start_ns = 10, .end_ns = 30, .parent = 0, .request = 1},
      {.name = "b", .start_ns = 20, .end_ns = 50, .parent = 0, .request = 1},
      {.name = "c", .start_ns = 12, .end_ns = 18, .parent = 1, .request = 1},
  };
  const std::vector<std::uint64_t> self = self_times(spans);
  expect(self[0] == 60, "root self = 100 - union [10,50)");
  expect(self[1] == 14, "child self = 20 - grandchild 6");
  expect(self[2] == 30, "leaf self = duration");
  expect(self[3] == 6, "grandchild self = duration");

  // A child poking past its parent only counts inside the parent.
  const std::vector<Span> clipped{
      {.name = "p", .start_ns = 100, .end_ns = 200, .parent = -1, .request = 0},
      {.name = "q", .start_ns = 150, .end_ns = 260, .parent = 0, .request = 0},
  };
  expect(self_times(clipped)[0] == 50, "child clipped to parent interval");

  // The recorder nests scopes and aggregates per name.
  SpanRecorder recorder(true);
  {
    const auto outer = recorder.scope("outer");
    for (int i = 0; i < 3; ++i) {
      const auto inner = recorder.scope("inner", 7);
      volatile double sink = 0.0;
      for (int k = 0; k < 1000; ++k) sink = sink + std::sqrt(static_cast<double>(k));
    }
  }
  const auto layers = recorder.layer_times();
  expect(recorder.spans().size() == 4, "recorder keeps every span");
  expect(recorder.spans()[1].parent == 0, "inner span's parent is outer");
  expect(layers.at("inner").spans == 3, "per-name span count");
  expect(layers.at("outer").self_ns + layers.at("inner").total_ns ==
             layers.at("outer").total_ns,
         "outer self + inner total = outer total");

  SpanRecorder off(false);
  { const auto span = off.scope("ignored"); }
  expect(off.spans().empty(), "disabled recorder records nothing");
}

void test_percentiles() {
  expect(!percentile({}, 50.0).has_value(), "empty sample has no percentile");
  expect(!median({}).has_value(), "empty sample has no median");
  expect(percentile({42.0}, 0.0) == 42.0 && percentile({42.0}, 99.0) == 42.0,
         "single sample is every percentile");
  const std::vector<double> four{4.0, 1.0, 3.0, 2.0};
  expect(percentile(four, 50.0) == 2.0, "nearest-rank p50 of 1..4 is 2");
  expect(percentile(four, 75.0) == 3.0, "nearest-rank p75 of 1..4 is 3");
  expect(percentile(four, 99.0) == 4.0, "p99 of a small sample is its max");
  expect(percentile(four, 0.0) == 1.0, "p0 is the min");
  expect(median(four) == 2.5, "even-count median averages the middle pair");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd-count median");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 99.0) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(hundred, 99.9) == 100.0, "p99.9 of 1..100 is 100");
  expect(hundred.front() == 100.0, "percentile leaves the caller's sample untouched");
  const double inf = std::numeric_limits<double>::infinity();
  expect(percentile({1.0, inf, 2.0}, 99.0) == inf, "a missing answer (+inf) lands in p99");
}

}  // namespace

int run_selftest() {
  test_self_time();
  test_percentiles();
  std::cout << (failures == 0 ? "selftest ok" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
