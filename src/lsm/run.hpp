#pragma once
// Immutable sorted runs: the on-disk unit of the lsm store.
//
// A run is one file of ascending-key count entries, written once by a
// flush or compaction and never modified — all mutation happens by
// writing *new* runs and swapping the manifest.  Layout:
//
//   "aarLSMr1"                              8-byte header magic
//   data block *                            format.hpp frames
//   filter block                            u32 size | payload | u32 crc
//   index block                             u32 size | payload | u32 crc
//   footer (fixed 44 bytes):
//     u64 filter_offset | u32 filter_size
//     u64 index_offset  | u32 index_size
//     u64 entry_count   | u32 crc32(bytes above) | "aarLSMe1"
//
// The footer sits at a fixed distance from EOF so a reader can locate
// the index without scanning; its CRC plus the end magic mean a torn
// tail (the classic crash shape for an unreferenced file) is detected
// before any block is trusted.  Index payload: varint block count, then
// per block u64 offset | varint size | u64 last_key.
//
// Readers serve point lookups via index binary search + one pread, and
// compaction consumes runs through a streaming Iterator so a merge never
// holds more than one block per input run in memory.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "lsm/bloom.hpp"
#include "lsm/format.hpp"

namespace aar::lsm {

struct RunWriterOptions {
  std::size_t block_bytes = 4096;  ///< target framed block size
  /// Crash-point prefix: "run" for flushes, "compaction" for merges —
  /// fault_point("<prefix>.block") fires after each data block write.
  std::string fault_prefix = "run";
};

/// Write a run from a pull source: `next` fills one entry and returns
/// false at end of stream; keys must come out strictly ascending.
/// `bloom_keys_hint` sizes the bloom filter and only needs to be an
/// upper bound on distinct antecedents (compaction passes the input
/// entry total).  Returns the number of entries written; the file is
/// fsynced.  Throws std::system_error on I/O failure; CrashPoint from an
/// armed fault hook unwinds mid-file, leaving exactly the torn state a
/// real crash would.
std::uint64_t write_run_stream(const std::string& path,
                               const std::function<bool(Entry&)>& next,
                               std::uint64_t bloom_keys_hint,
                               const RunWriterOptions& options);

/// Convenience wrapper over write_run_stream for materialized entries
/// (flush path); sizes the bloom exactly.
std::uint64_t write_run(const std::string& path,
                        const std::vector<Entry>& entries,
                        const RunWriterOptions& options);

/// Memory-light read handle over one immutable run file.
class RunReader {
 public:
  /// Validates header/footer/filter/index; with `verify_blocks` every
  /// data block's CRC is checked too (the recovery path does this —
  /// runs are immutable, so open-time verification covers all
  /// corruption acquired while the store was down).  Throws
  /// CorruptBlock / std::runtime_error on any violation.
  static std::shared_ptr<RunReader> open(const std::string& path,
                                         bool verify_blocks);

  ~RunReader();
  RunReader(const RunReader&) = delete;
  RunReader& operator=(const RunReader&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::uint64_t entry_count() const noexcept { return entries_; }

  /// Bloom probe; false means `antecedent` is definitely absent.
  [[nodiscard]] bool may_contain(HostId antecedent) const noexcept {
    return bloom_.may_contain(antecedent);
  }

  /// Point lookup: adds the stored count into `count` when present.
  [[nodiscard]] bool get(Key key, std::int64_t& count) const;

  /// Append every entry in `antecedent`'s key range (ascending, raw
  /// partial sums for this run only).
  void for_antecedent(HostId antecedent, std::vector<Entry>& out) const;

  /// Streaming ascending scan over the whole run, one block resident at
  /// a time.  The reader must outlive the iterator.
  class Iterator {
   public:
    [[nodiscard]] bool valid() const noexcept { return pos_ < block_.size(); }
    [[nodiscard]] const Entry& entry() const noexcept { return block_[pos_]; }
    void next();

   private:
    friend class RunReader;
    explicit Iterator(const RunReader* run) : run_(run) { next_block(); }
    void next_block();

    const RunReader* run_;
    std::size_t block_index_ = 0;
    std::vector<Entry> block_;
    std::size_t pos_ = 0;
  };

  [[nodiscard]] Iterator iterate() const { return Iterator(this); }

 private:
  struct BlockHandle {
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
    Key last_key = 0;
  };

  RunReader() = default;

  /// pread + frame-CRC-verify one data block.
  [[nodiscard]] std::string read_block(const BlockHandle& handle) const;

  int fd_ = -1;
  std::string path_;
  std::uint64_t entries_ = 0;
  std::vector<BlockHandle> index_;
  Bloom bloom_;
};

}  // namespace aar::lsm
