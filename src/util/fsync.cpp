#include "util/fsync.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

namespace spgcmp::util {

namespace {

/// Open `path` read-only, fsync it, close.  `dir_ok` relaxes the errors a
/// directory fsync may legitimately report on exotic filesystems.
void fsync_path(const std::string& path, bool dir_ok) {
  const int flags = dir_ok ? (O_RDONLY | O_DIRECTORY) : O_RDONLY;
  const int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    throw std::runtime_error("cannot open " + path +
                             " for fsync: " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    if (dir_ok && (saved == EINVAL || saved == ENOTSUP)) return;
    throw std::runtime_error("fsync " + path + ": " + std::strerror(saved));
  }
}

// Temp-file name for an atomic rename install, unique per *writer*, not
// per process: in-process threads share a pid, so pid alone would make them
// share one temp file and the first rename would strand the others with
// ENOENT.  pid keeps independent processes sharing a directory apart; the
// atomic sequence keeps threads apart.
std::string unique_tmp_path(const std::string& base) {
  static std::atomic<unsigned> tmp_seq{0};
  const unsigned seq = tmp_seq.fetch_add(1, std::memory_order_relaxed);
  return base + ".tmp." + std::to_string(static_cast<long>(::getpid())) + "." +
         std::to_string(seq);
}

}  // namespace

void fsync_file(const std::string& path) { fsync_path(path, /*dir_ok=*/false); }

void fsync_parent_dir(const std::string& path) {
  // Built in one expression: GCC 12's -Wrestrict false-positives on
  // reassigning a just-constructed std::string at -O2.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  fsync_path(parent.empty() ? std::string(".") : parent.string(),
             /*dir_ok=*/true);
}

void write_file_durable(const std::string& path, std::string_view content) {
  const std::string tmp = unique_tmp_path(path);
  try {
    {
      // Truncate explicitly: a stale larger tmp from an earlier failed
      // attempt must not leave trailing bytes behind the new document.
      std::ofstream os(tmp, std::ios::trunc);
      if (!os) throw std::runtime_error("cannot write " + tmp);
      os << content;
      // The stream never threw, so a full disk surfaces only here: check
      // before the rename installs a truncated file over a good one.
      os.flush();
      if (!os.good()) {
        throw std::runtime_error("error writing " + tmp + " (disk full?)");
      }
    }
    fsync_file(tmp);
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) throw std::runtime_error("cannot install " + path + ": " + ec.message());
  } catch (...) {
    // Every install has a temp name of its own, so a failed one would
    // otherwise leave a new file behind each time.
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw;
  }
  fsync_parent_dir(path);
}

}  // namespace spgcmp::util
