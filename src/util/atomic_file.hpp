// Atomic, durable small-file I/O: the write-temp / fsync / rename
// primitive and the durable append under the campaign fabric's
// crash-tolerant checkpoints.
//
// atomic_write_file guarantees that after a crash at ANY instruction —
// including SIGKILL mid-write and power loss between the data fsync and
// the rename — a later reader of `path` observes either the complete
// previous contents or the complete new contents, never a mixture and
// never a torn prefix of the new file. The sequence is the classic
// journaling recipe: write `path + ".tmp"`, fsync the file, rename(2)
// over `path` (atomic within a filesystem), then fsync the containing
// directory so the rename itself is durable.
//
// Single-writer contract: the temp name is deterministic (`path + ".tmp"`),
// so concurrent writers to the SAME path would race on it — callers
// serialise (the fabric coordinator persists under its state mutex). A
// stale temp file left by a crash is simply overwritten by the next
// write and never read.
//
// append_durable adds bytes at the end of an existing file and
// fdatasyncs them: one write and one flush, with no rename and no
// directory fsync. It is not atomic — a crash mid-append can leave any
// prefix of the appended bytes — so it suits only formats whose reader
// drops a torn tail (the fabric's CRC-framed checkpoint log).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hybridcnn::util {

/// Atomically replaces the contents of `path` with `size` bytes from
/// `data` (see file comment for the durability guarantee). Throws
/// std::runtime_error if any step fails; on failure `path` is untouched
/// and the temp file is removed.
void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size);

inline void atomic_write_file(const std::string& path,
                              const std::vector<std::uint8_t>& data) {
  atomic_write_file(path, data.data(), data.size());
}

/// Appends `size` bytes from `data` to the existing file `path` and
/// fdatasyncs it (see file comment for the crash model). Never creates
/// the file. Throws std::runtime_error if any step fails.
void append_durable(const std::string& path, const void* data,
                    std::size_t size);

inline void append_durable(const std::string& path,
                           const std::vector<std::uint8_t>& data) {
  append_durable(path, data.data(), data.size());
}

/// Reads the entire file into `out`. Returns false (leaving `out`
/// cleared) when the file does not exist or cannot be read — absence is
/// an expected state for a first-run checkpoint, not an error.
[[nodiscard]] bool read_file(const std::string& path,
                             std::vector<std::uint8_t>& out);

}  // namespace hybridcnn::util
