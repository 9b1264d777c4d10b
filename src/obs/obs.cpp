#include "obs/obs.hpp"

#include <iostream>
#include <sstream>
#include <utility>

#include "util/cli.hpp"
#include "util/fsync.hpp"

namespace spgcmp::obs {

bool write_text_file_durable(const std::string& path,
                             std::string_view content) noexcept {
  try {
    util::write_file_durable(path, content);
    return true;
  } catch (const std::exception& e) {
    std::cerr << "obs: failed to write " << path << ": " << e.what() << "\n";
    return false;
  }
}

ScopedFiles::ScopedFiles(std::string trace_path, std::string metrics_path)
    : trace_path_(std::move(trace_path)),
      metrics_path_(std::move(metrics_path)) {
  if (!trace_path_.empty()) {
    trace_start();
    tracing_ = true;
  }
}

ScopedFiles::~ScopedFiles() {
  if (tracing_) {
    std::ostringstream doc;
    trace_stop(doc);
    if (const std::uint64_t dropped = trace_dropped(); dropped != 0) {
      std::cerr << "obs: trace buffers overflowed, dropped " << dropped
                << " events\n";
    }
    write_text_file_durable(trace_path_, doc.str());
  }
  if (!metrics_path_.empty()) {
    write_text_file_durable(metrics_path_,
                            Registry::instance().snapshot_json(2) + "\n");
  }
}

ScopedFiles ScopedFiles::from_args(const util::Args& args) {
  return ScopedFiles(args.get_string("trace", "REPRO_TRACE", ""),
                     args.get_string("metrics", "REPRO_METRICS", ""));
}

}  // namespace spgcmp::obs
