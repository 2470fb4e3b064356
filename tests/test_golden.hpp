#pragma once
// Shared plumbing for the frozen-bytes golden suites
// (tests/data/golden_overlay.v1, tests/data/golden_replay.v1).
//
// A golden file holds one `name value` entry per line (`#` starts a
// comment).  A suite collects entries, then GoldenEntries::check() either
// compares them with the file or — when the suite's environment variable
// names an output file — appends them there instead, which is how a golden
// is (re)generated.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"

namespace aar::testing {

inline std::string hex(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// 64-bit FNV-1a over a byte string.
inline std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char byte : bytes) {
    hash ^= static_cast<std::uint8_t>(byte);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Every top-level entry of the section objects in an aar.metrics.v1
/// snapshot that holds a nonzero value, one per line.  Registry::reset()
/// zeroes metrics but never unregisters them, so dropping all-zero entries
/// makes the snapshot independent of what other tests registered earlier in
/// the same process.  Histogram shape fields (lo/hi/bins) do not count as
/// values.
inline std::string nonzero_metrics() {
  std::ostringstream json;
  obs::Registry::global().write_json(json, {}, /*include_timers=*/false);
  const std::string s = json.str();
  std::string kept;
  int depth = 0;
  bool in_string = false;
  std::size_t entry_start = 0;
  const auto flush = [&](std::size_t end) {
    const std::string entry = s.substr(entry_start, end - entry_start);
    const std::size_t colon = entry.find("\":");
    if (colon == std::string::npos) return;
    std::string value = entry.substr(colon + 2);
    for (const char* shape : {"\"lo\":", "\"hi\":", "\"bins\":"}) {
      const std::size_t at = value.find(shape);
      if (at == std::string::npos) continue;
      const std::size_t stop = value.find_first_of(",}", at);
      value.erase(at, stop - at);
    }
    if (value.find_first_of("123456789") != std::string::npos) {
      kept += entry;
      kept += '\n';
    }
  };
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      if (++depth == 2) entry_start = i + 1;
    } else if (c == '}' || c == ']') {
      if (depth-- == 2) flush(i);
    } else if (c == ',' && depth == 2) {
      flush(i);
      entry_start = i + 1;
    }
  }
  return kept;
}

/// Collects `name value` entries, then either checks them against
/// tests/data/<file> or (environment variable `out_env` set) appends the
/// ones not yet there to the file it names.
class GoldenEntries {
 public:
  GoldenEntries(std::string file, std::string out_env)
      : file_(std::move(file)), out_env_(std::move(out_env)) {}

  void add(const std::string& name, const std::string& value) {
    entries_.emplace_back(name, value);
  }
  void add(const std::string& name, std::uint64_t value) {
    add(name, std::to_string(value));
  }

  void check() const {
    if (const char* out = std::getenv(out_env_.c_str())) {
      // Entries already written (say, by the same check at another thread
      // count) are not repeated.
      const std::map<std::string, std::string> written = load(out);
      std::ofstream file(out, std::ios::app);
      for (const auto& [name, value] : entries_) {
        if (!written.contains(name)) file << name << ' ' << value << '\n';
      }
      return;
    }
    const std::map<std::string, std::string> golden =
        load(std::string(AAR_TEST_DATA_DIR) + "/" + file_);
    ASSERT_FALSE(golden.empty()) << file_;
    for (const auto& [name, value] : entries_) {
      const auto it = golden.find(name);
      ASSERT_NE(it, golden.end()) << "missing golden entry " << name;
      EXPECT_EQ(value, it->second) << name;
    }
  }

 private:
  [[nodiscard]] static std::map<std::string, std::string> load(
      const std::string& path) {
    std::map<std::string, std::string> golden;
    std::ifstream file(path);
    std::string line;
    while (std::getline(file, line)) {
      if (line.empty() || line[0] == '#') continue;
      const std::size_t space = line.find(' ');
      if (space == std::string::npos) continue;
      golden[line.substr(0, space)] = line.substr(space + 1);
    }
    return golden;
  }

  std::string file_;
  std::string out_env_;
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace aar::testing
