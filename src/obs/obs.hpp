#pragma once

// Tool-facing entry points of the observability layer.
//
// Every binary that accepts `--trace=FILE` / `--metrics=FILE` (or the
// REPRO_TRACE / REPRO_METRICS environment fallbacks) creates one
// `ScopedFiles` right after argument parsing:
//
//   const auto obs = spgcmp::obs::ScopedFiles::from_args(args);
//
// If a trace path was given, tracing starts immediately; at scope exit the
// Chrome trace-event document and/or the metrics registry snapshot are
// written durably (util::write_file_durable, as the CampaignStore
// manifest is).  With neither flag set the object is inert and the
// instrumentation layer stays on its disabled fast path.

#include <string>
#include <string_view>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace spgcmp::util {
class Args;
}

namespace spgcmp::obs {

/// Durably install `content` at `path` (util::write_file_durable: a
/// per-writer temp, flush-check, fsync, rename, parent-directory fsync).
/// Returns false (after a stderr diagnostic) instead of throwing — callers
/// are exit paths that must not die on a full disk.
bool write_text_file_durable(const std::string& path,
                             std::string_view content) noexcept;

/// RAII trace/metrics session bound to output files.
class ScopedFiles {
 public:
  ScopedFiles() = default;
  ScopedFiles(std::string trace_path, std::string metrics_path);
  ~ScopedFiles();

  ScopedFiles(const ScopedFiles&) = delete;
  ScopedFiles& operator=(const ScopedFiles&) = delete;

  /// Read `--trace` / `--metrics` (env REPRO_TRACE / REPRO_METRICS).
  [[nodiscard]] static ScopedFiles from_args(const util::Args& args);

  [[nodiscard]] bool tracing() const noexcept { return tracing_; }

 private:
  std::string trace_path_;
  std::string metrics_path_;
  bool tracing_ = false;
};

}  // namespace spgcmp::obs
