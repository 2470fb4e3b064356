#pragma once
// Scenario-driven fault experiment runner: builds a network from a
// fault::Scenario, installs the injector, and drives an epoch-structured
// interest workload (warm-up, then `epochs` measured epochs with optional
// churn between them).  Every run is a pure function of (scenario, seed):
// the same pair reproduces the same SearchOutcome stream byte for byte,
// which is what the seeded-replay goldens and the CI determinism gate
// check.  Shared by `aar_sim faults`, bench_n6's fault grid, and the
// fault test suite.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/scenario.hpp"
#include "overlay/experiment.hpp"

namespace aar::overlay {

/// Aggregates for one measured epoch of a fault scenario.
struct FaultEpochStats {
  std::uint64_t searches = 0;
  std::uint64_t hits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t degraded_floods = 0;
  std::uint64_t retries = 0;
  std::uint64_t dropped = 0;
  std::uint64_t messages = 0;
  std::uint64_t nodes_reached = 0;

  [[nodiscard]] double success_rate() const noexcept {
    return searches == 0
               ? 0.0
               : static_cast<double>(hits) / static_cast<double>(searches);
  }
  [[nodiscard]] double avg_messages() const noexcept {
    return searches == 0
               ? 0.0
               : static_cast<double>(messages) / static_cast<double>(searches);
  }
  [[nodiscard]] double avg_coverage() const noexcept {
    return searches == 0 ? 0.0
                         : static_cast<double>(nodes_reached) /
                               static_cast<double>(searches);
  }
};

struct FaultRunResult {
  std::vector<FaultEpochStats> epochs;
  /// Canonical byte encoding of every measured SearchOutcome, in order.
  std::vector<std::uint8_t> outcome_bytes;
  /// FNV-1a over outcome_bytes — the replay-identity fingerprint.
  std::uint64_t outcome_hash = 0;
  std::uint64_t searches = 0;
  std::uint64_t hits = 0;
};

/// Append the canonical encoding of one outcome (fixed-width little-endian
/// fields; documented in docs/FAULTS.md).  Exposed so tests can compare
/// individual outcomes against streams.
void append_outcome(std::vector<std::uint8_t>& out, const SearchOutcome& o);

/// FNV-1a 64-bit over a byte span (offset-basis seeded).
[[nodiscard]] std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes);

/// Policy factory for a scenario `policy` name: "flooding", "shortcuts",
/// or "association" (throws std::runtime_error otherwise).
[[nodiscard]] PolicyFactory scenario_policy_factory(const std::string& name);

/// Run `scenario` to completion from `seed`.  `faulted = false` strips the
/// injector entirely (the lossless baseline the degradation table and the
/// zero-fault differential compare against) while keeping topology,
/// stores, and the query stream identical.  `network` carries the engine's
/// threads and shards, which never change the result; its seed is
/// replaced by `seed + 1`.
[[nodiscard]] FaultRunResult run_fault_scenario(const fault::Scenario& scenario,
                                                std::uint64_t seed,
                                                bool faulted = true,
                                                NetworkConfig network = {});

}  // namespace aar::overlay
