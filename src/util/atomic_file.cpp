#include "util/atomic_file.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace hybridcnn::util {

namespace {

[[noreturn]] void fail(const char* op, const std::string& what,
                       const std::string& path) {
  throw std::runtime_error(std::string(op) + ": " + what + " failed for " +
                           path + ": " + std::strerror(errno));
}

/// Directory component of `path` ("." when there is none) — the inode
/// whose entry table the rename mutates, and therefore the one that
/// must be fsynced for the rename to survive power loss.
std::string parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// write(2) until the buffer is drained (short writes are legal).
bool write_all(int fd, const unsigned char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void atomic_write_file(const std::string& path, const void* data,
                       std::size_t size) {
  const std::string tmp = path + ".tmp";

  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) fail("atomic_write_file", "open", tmp);

  const bool wrote =
      write_all(fd, static_cast<const unsigned char*>(data), size);
  const bool synced = wrote && ::fsync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    ::unlink(tmp.c_str());
    fail("atomic_write_file", wrote ? (synced ? "close" : "fsync") : "write",
         tmp);
  }

  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    fail("atomic_write_file", "rename", path);
  }

  // Durability of the rename itself: fsync the directory entry. A
  // failure here is reported (the caller's checkpoint may not survive
  // power loss) but the rename has already happened, so path is intact.
  const std::string dir = parent_dir(path);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) fail("atomic_write_file", "open directory", dir);
  const bool dir_synced = ::fsync(dfd) == 0;
  ::close(dfd);
  if (!dir_synced) fail("atomic_write_file", "fsync directory", dir);
}

void append_durable(const std::string& path, const void* data,
                    std::size_t size) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  if (fd < 0) fail("append_durable", "open", path);
  const bool wrote =
      write_all(fd, static_cast<const unsigned char*>(data), size);
  const bool synced = wrote && ::fdatasync(fd) == 0;
  if (::close(fd) != 0 || !synced) {
    fail("append_durable", wrote ? (synced ? "close" : "fdatasync") : "write",
         path);
  }
}

bool read_file(const std::string& path, std::vector<std::uint8_t>& out) {
  out.clear();
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;

  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    return false;
  }
  out.resize(static_cast<std::size_t>(st.st_size));

  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::read(fd, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      out.clear();
      return false;
    }
    if (n == 0) break;  // file shrank under us: keep the bytes we got
    off += static_cast<std::size_t>(n);
  }
  out.resize(off);
  ::close(fd);
  return true;
}

}  // namespace hybridcnn::util
