// Durable campaign-progress checkpoints: the crash-recovery substrate.
//
// The coordinator persists every completed shard's serialised partial
// summary in one checkpoint file, an append-only log of CRC-framed
// records. A coordinator run writes the file from its caller thread
// only. As the workers start, it replaces the file atomically
// (write-temp, fsync, rename — util::atomic_write_file) with the header
// and every resumed record; then each batch of completions queued since
// its last write is appended with one write and one fdatasync
// (util::append_durable). A coordinator restarted after SIGKILL loads
// the file and re-runs only the shards that were not durably recorded.
//
// On-disk format (all integers little-endian):
//
//   header   magic  u32  'H','C','F','C'
//            version u32  (kVersion)
//            fingerprint u64  campaign identity (shard.hpp)
//            shard_count u32  shards in the plan
//            crc    u32  CRC32C over the 20 header bytes above
//   record*  shard_index  u32
//            payload_size u32
//            crc          u32  CRC32C over shard_index || payload bytes
//            payload      payload_size bytes (summary codec output)
//
// Reader trust model: nothing in the file is trusted until proven.
// A missing file, or a header whose magic/version/fingerprint/CRC does
// not match, yields `usable == false` — the coordinator starts from
// scratch, which is always bit-identity-safe (it can only cost re-runs,
// never merge wrong results). Records are scanned sequentially; the
// first truncated, CRC-mismatching, out-of-range or duplicate record
// ends the scan and everything from it on is dropped — the torn-tail
// model of a crash mid-append or corruption at rest. Records are stored
// in completion order and returned in shard-index order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hybridcnn::fabric {

inline constexpr std::uint32_t kCheckpointVersion = 1;

/// One durable shard result: plan index plus the codec payload.
struct ShardRecord {
  std::uint32_t shard_index = 0;
  std::vector<std::uint8_t> payload;
};

/// Atomically replaces the checkpoint at `path` with the header and the
/// given records, stored in the order given. Throws on I/O failure; the
/// previous checkpoint survives any failed write.
void save_checkpoint(const std::string& path, std::uint64_t fingerprint,
                     std::uint32_t shard_count,
                     const std::vector<ShardRecord>& records);

/// Appends the given record frames, in the order given, to the
/// checkpoint at `path` with one write and one fdatasync (a group
/// commit). The file must already hold this campaign's header (a
/// save_checkpoint earlier in the same coordinator run); a crash
/// mid-append leaves whole frames followed by at most one torn frame,
/// which load_checkpoint drops. Throws on I/O failure, including a
/// missing file.
void append_checkpoint_records(const std::string& path,
                               const std::vector<ShardRecord>& records);

/// Result of loading a checkpoint file.
struct CheckpointLoad {
  /// True when the file existed and its header matched (magic, version,
  /// fingerprint, shard count, CRC). False means "no usable checkpoint"
  /// — never an error: the campaign simply starts fresh.
  bool usable = false;
  /// Valid records recovered (unique shard indices < shard_count), in
  /// shard-index order.
  std::vector<ShardRecord> records;
  /// Records dropped at the first corruption (diagnostics only).
  std::size_t dropped_records = 0;
  /// Bytes discarded from the corrupt/torn tail (diagnostics only).
  std::size_t dropped_bytes = 0;
};

/// Loads and validates the checkpoint at `path` against the expected
/// campaign identity. Never throws on bad content — corruption degrades
/// to fewer recovered records (worst case: none).
[[nodiscard]] CheckpointLoad load_checkpoint(const std::string& path,
                                             std::uint64_t fingerprint,
                                             std::uint32_t shard_count);

}  // namespace hybridcnn::fabric
