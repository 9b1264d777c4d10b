#pragma once

// Durability helpers for the atomic-rename persistence pattern.
//
// An atomic `write tmp, rename over target` only survives power loss when
// the tmp file's *data* reached the disk before the rename and the rename
// itself (a directory mutation) is flushed afterwards.  std::ofstream
// flushes to the kernel, not the platter, so callers that promise a valid
// file after a crash must fsync both the file and its parent directory.

#include <string>
#include <string_view>

namespace spgcmp::util {

/// fsync the contents of `path`; throws std::runtime_error on failure.
void fsync_file(const std::string& path);

/// fsync the directory containing `path`, making a rename of `path`
/// durable.  Filesystems that reject directory fsync (EINVAL/ENOTSUP on
/// some network mounts) are treated as best-effort success; real I/O
/// errors throw std::runtime_error.
void fsync_parent_dir(const std::string& path);

/// Durably install `content` at `path`: write a temp file unique to this
/// writer (`path.tmp.<pid>.<seq>`, so concurrent threads and processes never
/// share one), check the flush, fsync the data, rename over `path`, then
/// fsync the parent directory.  A crash leaves the old file or the new one,
/// never a torn or vanished one.  Throws std::runtime_error on failure,
/// after removing the temp.
void write_file_durable(const std::string& path, std::string_view content);

}  // namespace spgcmp::util
