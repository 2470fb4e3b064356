#pragma once
// Shared types of the benchmark binary: command-line options, the result
// every workload returns, and the final one-line JSON report.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed command line: `perfbench <workload> --seed N --seconds S
/// --trace 0|1 [--key value ...]`.  The serve workloads' parameters (rate
/// ladder, reference rate, latency limit, and what differs between
/// serve-mined and serve-flood) come from perfbench/config.json via run.py
/// as further --key value pairs; every other parameter is a constant in its
/// workload's source.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for inputs and span dumps
  std::map<std::string, std::string> params;

  [[nodiscard]] const std::string& get(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] std::vector<double> list(const std::string& key) const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;  ///< correctness check messages

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Record a correctness check; a false `ok` fails the run.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

Result run_serve(const Options& options, bool flood);
int run_selftest();

/// Human-readable progress line on stdout (never the last line).
void note(const std::string& line);

/// `value` with `digits` decimals, for progress lines.
[[nodiscard]] std::string fmt(double value, int digits = 3);

/// SplitMix64 step: the benchmark's own input generator, so inputs depend
/// only on --seed, never on the program under test.
[[nodiscard]] inline std::uint64_t splitmix(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Uniform double in [0, 1) from splitmix().
[[nodiscard]] inline double uniform(std::uint64_t& state) noexcept {
  return static_cast<double>(splitmix(state) >> 11) * 0x1.0p-53;
}

}  // namespace perfbench
