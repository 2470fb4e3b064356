#include "util/flags.hpp"

#include <algorithm>

namespace aar::util {

CommandLine CommandLine::parse(int argc, char** argv,
                               std::span<const std::string_view> boolean) {
  CommandLine line;
  if (argc >= 2) line.command = argv[1];
  for (int i = 2; i < argc;) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      line.parse_error = "unexpected argument '" + key + "'";
      return line;
    }
    const std::string name = key.substr(2);
    if (std::find(boolean.begin(), boolean.end(), name) != boolean.end()) {
      line.flags[name].emplace_back();
      i += 1;
      continue;
    }
    if (i + 1 >= argc) {
      line.parse_error = "flag '" + key + "' needs a value";
      return line;
    }
    line.flags[name].emplace_back(argv[i + 1]);
    i += 2;
  }
  return line;
}

const std::vector<std::string>& CommandLine::all(std::string_view key) const {
  static const std::vector<std::string> empty;
  const auto it = flags.find(key);
  return it == flags.end() ? empty : it->second;
}

std::string CommandLine::unknown_flag(const AllowedFlags& allowed) const {
  const auto it = allowed.find(command);
  if (it == allowed.end()) return {};
  for (const auto& [key, values] : flags) {
    if (std::find(it->second.begin(), it->second.end(), key) ==
        it->second.end()) {
      return key;
    }
  }
  return {};
}

}  // namespace aar::util
