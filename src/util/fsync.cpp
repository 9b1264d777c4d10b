#include "util/fsync.hpp"

#include <filesystem>
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

}  // namespace

void fsync_file(const std::string& path) { fsync_path(path, /*dir_ok=*/false); }

void fsync_parent_dir(const std::string& path) {
  // Built in one expression: GCC 12's -Wrestrict false-positives on
  // reassigning a just-constructed std::string at -O2.
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  fsync_path(parent.empty() ? std::string(".") : parent.string(),
             /*dir_ok=*/true);
}

}  // namespace spgcmp::util
