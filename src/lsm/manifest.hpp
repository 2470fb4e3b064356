#pragma once
// `aar.lsmmanifest.v1`: the single source of truth for which run files
// constitute the store (docs/STORAGE.md "Recovery contract").
//
// The manifest is a small text file — human-inspectable on purpose, like
// the aartr header — whose last line is a CRC32 over everything above it:
//
//   aar.lsmmanifest.v1
//   version <n>
//   next_file <n>
//   run <level> <file> <entries>
//   ...
//   crc <8 hex digits>
//
// Installation is the classic atomic swap: write MANIFEST.tmp + fsync,
// rename MANIFEST -> MANIFEST.prev, rename MANIFEST.tmp -> MANIFEST,
// fsync the directory.  Every crash point in that dance leaves either
// the old version (tmp written but not installed), or the old version
// under its .prev name (the mid-rename window) — never a state that
// parses as neither.  Loading walks the ladder MANIFEST -> MANIFEST.prev
// -> empty store; a CRC or parse failure steps down the ladder, it never
// aborts.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace aar::lsm {

inline constexpr const char* kManifestName = "MANIFEST";
inline constexpr const char* kManifestPrevName = "MANIFEST.prev";
inline constexpr const char* kManifestTmpName = "MANIFEST.tmp";

/// Deepest level a manifest may name.  Reaching it takes fanout^64
/// flushes, so no store ever writes past it; a larger value is a hostile
/// or corrupt manifest, not a deep store.
inline constexpr std::uint32_t kMaxRunLevel = 64;

/// Whether `name` is a run file this store writes: `run-<digits>.aarlsm`.
/// The manifest parser rejects any other name (a path like
/// `../x.aarlsm` would escape the store directory) and recovery's orphan
/// sweep deletes only names that pass it.
[[nodiscard]] bool is_run_file_name(std::string_view name) noexcept;

struct ManifestRun {
  std::uint32_t level = 0;
  std::string file;  ///< name relative to the store directory
  std::uint64_t entries = 0;

  friend bool operator==(const ManifestRun&, const ManifestRun&) = default;
};

struct Manifest {
  std::uint64_t version = 0;
  std::uint64_t next_file = 1;  ///< next run-file sequence number
  std::vector<ManifestRun> runs;

  friend bool operator==(const Manifest&, const Manifest&) = default;
};

/// Canonical text form, CRC line included.  Byte-deterministic for a
/// given Manifest value — the CI determinism gate diffs these bytes.
[[nodiscard]] std::string encode_manifest(const Manifest& manifest);

/// Strict parse + CRC check; returns false on any violation, including a
/// run level above kMaxRunLevel or a file name is_run_file_name rejects.
[[nodiscard]] bool decode_manifest(std::string_view bytes, Manifest& out);

/// Atomically install `manifest` as `dir`/MANIFEST (rename-swap dance
/// above, with fault points manifest.tmp / manifest.retired /
/// manifest.installed).  Throws std::system_error on I/O failure.
void install_manifest(const std::string& dir, const Manifest& manifest);

struct LoadedManifest {
  Manifest manifest;
  std::string source;  ///< "MANIFEST" or "MANIFEST.prev"
};

/// Every manifest file in `dir` that parses, in ladder order (MANIFEST
/// first, then MANIFEST.prev).  Missing/corrupt files are skipped; only an
/// I/O error other than ENOENT throws.  The store's recovery needs the
/// full list because a manifest can parse cleanly yet reference a run
/// that fails verification — that failure steps down the same ladder.
[[nodiscard]] std::vector<LoadedManifest> manifest_candidates(
    const std::string& dir);

/// fsync a directory so renames within it are durable.
void sync_dir(const std::string& dir);

}  // namespace aar::lsm
