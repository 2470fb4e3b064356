// perfbench — the repository benchmark binary (perfbench/README.md).
//
//   perfbench <workload> --seed N --seconds S --trace 0|1 --work-dir D
//             [--key value ...]
//   perfbench selftest
//
// Prints progress lines, then as its last stdout line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// Exits 1 when any correctness check fails.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

namespace perfbench {

const std::string& Options::get(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

double Options::num(const std::string& key) const {
  const std::string& raw = get(key);
  char* end = nullptr;
  const double value = std::strtod(raw.c_str(), &end);
  if (raw.empty() || end == nullptr || *end != '\0') {
    throw std::invalid_argument("--" + key + " is not a number: " + raw);
  }
  return value;
}

std::vector<double> Options::list(const std::string& key) const {
  std::vector<double> out;
  std::stringstream in(get(key));
  std::string item;
  while (std::getline(in, item, ',')) {
    char* end = nullptr;
    out.push_back(std::strtod(item.c_str(), &end));
    if (item.empty() || *end != '\0') {
      throw std::invalid_argument("--" + key + " has a bad item: " + item);
    }
  }
  return out;
}

void note(const std::string& line) { std::cout << line << '\n' << std::flush; }

std::string fmt(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.*f", digits, value);
  return buffer;
}

namespace {

std::string json_number(double value) {
  char buffer[64];
  const auto [ptr, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  if (ec != std::errc{}) throw std::runtime_error("number format");
  return std::string(buffer, ptr);
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::cerr << "usage: perfbench <serve-mined|serve-flood> --seed N --seconds S --trace 0|1 --work-dir D "
               "[--key value ...]\n"
               "       perfbench selftest\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  Options options;
  options.workload = argv[1];
  if (options.workload == "selftest") return run_selftest();
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) return usage();
    options.params[key.substr(2)] = argv[i + 1];
  }
  try {
    options.seed = static_cast<std::uint64_t>(options.num("seed"));
    options.seconds = options.num("seconds");
    options.trace = options.num("trace") != 0.0;
    options.work_dir = options.get("work-dir");
    std::filesystem::create_directories(options.work_dir);
  } catch (const std::exception& error) {
    std::cerr << error.what() << "\n";
    return usage();
  }

  Result result;
  try {
    if (options.workload == "serve-mined") {
      result = run_serve(options, /*flood=*/false);
    } else if (options.workload == "serve-flood") {
      result = run_serve(options, /*flood=*/true);
    } else {
      return usage();
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench " << options.workload << ": " << error.what()
              << "\n";
    return 1;
  }

  for (const Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.check(false, "metric " + metric.name + " is not finite");
    }
  }
  for (const std::string& failure : result.failures) {
    std::cerr << "CHECK FAILED: " << failure << "\n";
    note("check failed: " + failure);
  }
  note("operations: " + std::to_string(result.attempted) + " attempted, " +
       std::to_string(result.failed) + " failed");

  std::ostringstream json;
  json << "{\"correct\": " << (result.correct ? "true" : "false")
       << ", \"attempted\": " << result.attempted
       << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) continue;
    json << (first ? "" : ", ") << json_string(metric.name)
         << ": {\"value\": " << json_number(metric.value)
         << ", \"unit\": " << json_string(metric.unit) << "}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return result.correct ? 0 : 1;
}
