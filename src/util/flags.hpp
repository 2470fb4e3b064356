#pragma once
// Command-line parsing shared by aar_sim and aar_node: "<command> --key
// value ..." argv with per-command allowed flags, and checked numeric flag
// values.
//
// A numeric value must parse in full — a base-10 integer with an optional
// leading '+', or a decimal / scientific real — and land in the flag's
// [lo, hi] range.  Anything else is a FlagError naming the flag: never a
// silent 0 from a failed strtol, and never a negative or oversized value
// wrapped by a cast (`--threads -1` as SIZE_MAX workers, `--port 70000`
// as 4464).

#include <charconv>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace aar::util {

/// A malformed or out-of-range flag value; the tools treat it as a usage
/// error (exit 2).
class FlagError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// `text` parsed in full as a T within [lo, hi]; nullopt otherwise (NaN and
/// infinities never pass a finite range).
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view text, T lo,
                                            T hi) {
  if (text.size() > 1 && text.front() == '+' && text[1] != '-') {
    text.remove_prefix(1);
  }
  if (text.empty()) return std::nullopt;
  T value{};
  const char* const end = text.data() + text.size();
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    result = std::from_chars(text.data(), end, value);
  } else {
    result = std::from_chars(text.data(), end, value, 10);
  }
  if (result.ec != std::errc{} || result.ptr != end ||
      !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

/// What a value in [lo, hi] looks like, for error messages; a 64-bit
/// type's upper limit is left unsaid.
template <typename T>
[[nodiscard]] std::string describe_range(T lo, T hi, std::string_view unit) {
  using Limits = std::numeric_limits<T>;
  std::ostringstream out;
  if constexpr (std::is_floating_point_v<T>) {
    out << "a number";
    if (lo != Limits::lowest() || hi != Limits::max()) {
      out << " in [" << lo << ", " << hi << "]";
    }
  } else if (hi != Limits::max() || sizeof(T) < sizeof(std::uint64_t)) {
    out << "an integer in " << +lo << ".." << +hi;
  } else if (lo == 0) {
    out << "a non-negative integer";
  } else if (lo == 1) {
    out << "a positive integer";
  } else if (lo != Limits::min()) {
    out << "an integer >= " << +lo;
  } else {
    out << "an integer";
  }
  if (!unit.empty()) out << " " << unit;
  return out.str();
}

/// `text` as the value of `--flag`, within [lo, hi] (default: all of T);
/// throws FlagError otherwise.
template <typename T>
[[nodiscard]] T parse_flag(std::string_view flag, std::string_view text,
                           T lo = std::numeric_limits<T>::lowest(),
                           T hi = std::numeric_limits<T>::max(),
                           std::string_view unit = {}) {
  if (const std::optional<T> value = parse_number(text, lo, hi)) return *value;
  throw FlagError("--" + std::string(flag) + " must be " +
                  describe_range(lo, hi, unit) + ", got '" +
                  std::string(text) + "'");
}

/// The flags each command accepts, by command name.
using AllowedFlags =
    std::map<std::string, std::vector<std::string>, std::less<>>;

/// A parsed "<command> --key value ..." argv.  A flag given twice keeps
/// every value in order: get() and num() read the last one, all() every
/// one (repeatable flags such as aar_node's --peer).
struct CommandLine {
  std::string command;
  std::map<std::string, std::vector<std::string>, std::less<>> flags;
  std::string parse_error;  ///< non-empty: malformed argv, refuse to run

  /// `boolean` names the flags that take no value (they read as "").
  [[nodiscard]] static CommandLine parse(
      int argc, char** argv, std::span<const std::string_view> boolean = {});

  [[nodiscard]] bool has(std::string_view key) const {
    return flags.find(key) != flags.end();
  }
  [[nodiscard]] std::string get(std::string_view key,
                                const std::string& fallback) const {
    const auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second.back();
  }
  [[nodiscard]] const std::vector<std::string>& all(std::string_view key) const;

  /// The flag as a T in [lo, hi] (default: all of T), or `fallback` when
  /// absent; a malformed or out-of-range value throws FlagError.
  template <typename T>
  [[nodiscard]] T num(std::string_view key, T fallback,
                      T lo = std::numeric_limits<T>::lowest(),
                      T hi = std::numeric_limits<T>::max(),
                      std::string_view unit = {}) const {
    const auto it = flags.find(key);
    return it == flags.end()
               ? fallback
               : parse_flag(key, it->second.back(), lo, hi, unit);
  }

  /// The first flag `command` does not accept (name without "--"), or ""
  /// when all are accepted or the command itself is unknown.
  [[nodiscard]] std::string unknown_flag(const AllowedFlags& allowed) const;
};

}  // namespace aar::util
