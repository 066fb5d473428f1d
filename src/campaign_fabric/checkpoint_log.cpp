#include "campaign_fabric/checkpoint_log.hpp"

#include <algorithm>

#include "util/atomic_file.hpp"
#include "util/crc32c.hpp"

namespace hybridcnn::fabric {

namespace {

constexpr std::uint32_t kMagic = 0x43464348u;  // "HCFC" little-endian
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4 + 4;
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 4;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         static_cast<std::uint64_t>(get_u32(p + 4)) << 32;
}

/// CRC of one record: shard index (LE bytes) chained with the payload,
/// so neither can be swapped or patched independently.
std::uint32_t record_crc(std::uint32_t shard_index,
                         const std::vector<std::uint8_t>& payload) {
  std::uint8_t idx[4] = {static_cast<std::uint8_t>(shard_index),
                         static_cast<std::uint8_t>(shard_index >> 8),
                         static_cast<std::uint8_t>(shard_index >> 16),
                         static_cast<std::uint8_t>(shard_index >> 24)};
  const std::uint32_t crc = util::crc32c(idx, sizeof(idx));
  return util::crc32c(payload.data(), payload.size(), crc);
}

/// Appends one record frame: index, payload size, CRC, payload.
void put_record(std::vector<std::uint8_t>& out, const ShardRecord& r) {
  put_u32(out, r.shard_index);
  put_u32(out, static_cast<std::uint32_t>(r.payload.size()));
  put_u32(out, record_crc(r.shard_index, r.payload));
  out.insert(out.end(), r.payload.begin(), r.payload.end());
}

}  // namespace

void save_checkpoint(const std::string& path, std::uint64_t fingerprint,
                     std::uint32_t shard_count,
                     const std::vector<ShardRecord>& records) {
  std::vector<std::uint8_t> out;
  std::size_t bytes = kHeaderBytes;
  for (const ShardRecord& r : records) {
    bytes += kRecordHeaderBytes + r.payload.size();
  }
  out.reserve(bytes);

  put_u32(out, kMagic);
  put_u32(out, kCheckpointVersion);
  put_u64(out, fingerprint);
  put_u32(out, shard_count);
  put_u32(out, util::crc32c(out.data(), out.size()));

  for (const ShardRecord& r : records) put_record(out, r);

  util::atomic_write_file(path, out);
}

void append_checkpoint_records(const std::string& path,
                               const std::vector<ShardRecord>& records) {
  std::vector<std::uint8_t> out;
  std::size_t bytes = 0;
  for (const ShardRecord& r : records) {
    bytes += kRecordHeaderBytes + r.payload.size();
  }
  out.reserve(bytes);
  for (const ShardRecord& r : records) put_record(out, r);
  util::append_durable(path, out);
}

CheckpointLoad load_checkpoint(const std::string& path,
                               std::uint64_t fingerprint,
                               std::uint32_t shard_count) {
  CheckpointLoad result;
  std::vector<std::uint8_t> bytes;
  if (!util::read_file(path, bytes)) return result;  // absent: start fresh

  if (bytes.size() < kHeaderBytes) return result;
  if (get_u32(bytes.data()) != kMagic) return result;
  if (get_u32(bytes.data() + 4) != kCheckpointVersion) return result;
  if (get_u64(bytes.data() + 8) != fingerprint) return result;
  if (get_u32(bytes.data() + 16) != shard_count) return result;
  if (get_u32(bytes.data() + 20) !=
      util::crc32c(bytes.data(), kHeaderBytes - 4)) {
    return result;
  }
  result.usable = true;

  std::vector<bool> seen(shard_count, false);
  std::size_t off = kHeaderBytes;
  while (off + kRecordHeaderBytes <= bytes.size()) {
    const std::uint32_t index = get_u32(bytes.data() + off);
    const std::uint32_t size = get_u32(bytes.data() + off + 4);
    const std::uint32_t crc = get_u32(bytes.data() + off + 8);
    const std::size_t payload_off = off + kRecordHeaderBytes;
    if (payload_off + size > bytes.size()) break;  // torn tail
    if (index >= shard_count || seen[index]) break;
    ShardRecord rec;
    rec.shard_index = index;
    rec.payload.assign(bytes.begin() + static_cast<std::ptrdiff_t>(payload_off),
                       bytes.begin() +
                           static_cast<std::ptrdiff_t>(payload_off + size));
    if (record_crc(index, rec.payload) != crc) break;  // bit rot / torn
    seen[index] = true;
    result.records.push_back(std::move(rec));
    off = payload_off + size;
  }

  // Appends land in completion order; callers get shard-index order.
  std::ranges::sort(result.records, {}, &ShardRecord::shard_index);

  result.dropped_bytes = bytes.size() - off;
  // Count full record frames that were recognisably present but dropped
  // (best effort: a torn tail may hide further frames).
  if (result.dropped_bytes > 0) result.dropped_records = 1;
  return result;
}

}  // namespace hybridcnn::fabric
