#pragma once

// Shared plumbing of spgbench: options, clocks, resource usage and the
// failure ledger every workload fills.
//
// spgbench prints one raw JSON document on stdout (util::JsonWriter,
// compact): per-pass timings, latency samples, counters and check
// outcomes.  perfbench/run.py turns it into the named metrics (medians,
// quartiles, percentiles), folds the traces, and prints the result line.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/json.hpp"

namespace spgbench {

using spgcmp::util::JsonWriter;

/// Every option is required: perfbench/run.py owns the defaults and the
/// range checks, and always passes each flag.
struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;     ///< length of the timed phase
  bool trace = false;       ///< alternate untraced and traced passes
  std::size_t threads = 0;  ///< sweep threads, or the serve solve pool
  std::size_t clients = 0;  ///< serve_replay client connections
  // Grid knobs of CampaignSpec::paper, whose random sweeps keep the spec's
  // own seed_base (42); the workload seed only orders the sweeps, so every
  // seed does the same solver work.
  std::size_t apps = 0;
  std::size_t apps150 = 0;
  int step = 0;
  int step150 = 0;
  // serve_replay request counts.
  std::size_t cold = 0;
  std::size_t hot = 0;
  /// paper_campaign: also run the one-shot grid and report its digests,
  /// for knobs without recorded digests.
  bool oneshot = false;
  /// Test hook: corrupt the payload of the first pass's hot-phase
  /// response with this index before it is checked (-1 = off).
  long long tamper_hit = -1;
};

/// Seconds on the steady clock (arbitrary epoch).
[[nodiscard]] double now_s();
/// Microseconds on the steady clock, since `origin_s`.
[[nodiscard]] double since_us(double origin_s);
/// Process user + system CPU seconds (getrusage).
[[nodiscard]] double cpu_s();
/// Process peak resident set size in MiB.
[[nodiscard]] double peak_rss_mb();

/// Operations attempted and failed, with the first few failure messages.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<std::string> notes;

  void fail(std::string why);
  void emit(JsonWriter& out) const;
};

/// Time `fn` once; returns seconds.
template <typename Fn>
double timed(Fn&& fn) {
  const double t0 = now_s();
  fn();
  return now_s() - t0;
}

/// Set-up samples, taken back to back before the timed phase and reported
/// as their median: `reset` (untimed) then `build` (timed), first repeated
/// untimed for a tenth of a second so lazy initialization and clock ramp-up
/// are not measured.  A sample repeats reset and build until the builds
/// took `min_sample_s` and reports the mean build time, so set-ups far
/// shorter than the clock's jitter still resolve.  The set-ups passes need
/// later are not timed.
template <typename Reset, typename Build>
std::vector<double> setup_samples(Reset&& reset, Build&& build,
                                  double min_sample_s) {
  const double t0 = now_s();
  while (now_s() - t0 < 0.1) {
    reset();
    build();
  }
  std::vector<double> out;
  for (int i = 0; i < 25; ++i) {
    double total = 0.0;
    int builds = 0;
    do {
      reset();
      total += timed(build);
      ++builds;
    } while (total < min_sample_s);
    out.push_back(total / builds);
  }
  return out;
}

/// Every counter of the obs registry, by name.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counters();
/// `after - before`, name by name.
[[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> counter_delta(
    const std::vector<std::pair<std::string, std::uint64_t>>& before,
    const std::vector<std::pair<std::string, std::uint64_t>>& after);
void emit_counters(JsonWriter& out, std::string_view key,
                   const std::vector<std::pair<std::string, std::uint64_t>>& c);

/// 16-hex-digit FNV-1a digest of `bytes` (serve::fnv1a64).
[[nodiscard]] std::string digest(std::string_view bytes);

/// Start tracing; returns the steady-clock second it started at, the
/// origin of the trace's timestamps.
double trace_begin();
/// Stop tracing and write the trace to `path`.
void trace_end(const std::string& path);
/// The trace file of pass `pass`, relative to the working directory.
[[nodiscard]] std::string trace_path(std::size_t pass);

/// The workloads.  Each runs set-up and passes until `opt.seconds` is
/// spent, checks its outputs into `ledger`, and writes its measurements
/// as members of the open object of `out`.
void run_paper_grid(const Options& opt, JsonWriter& out, Ledger& ledger);
void run_paper_campaign(const Options& opt, JsonWriter& out, Ledger& ledger);
void run_serve_replay(const Options& opt, JsonWriter& out, Ledger& ledger);

/// The pass schedule shared by all workloads: untraced passes only, or
/// untraced and traced passes alternating (starting untraced), for about
/// `seconds` — at least one pass of each kind.
class Schedule {
 public:
  explicit Schedule(const Options& opt);
  /// Whether to run another pass; sets `traced` for it.
  bool next(bool& traced);

 private:
  bool trace_;
  double seconds_;
  double start_;
  std::size_t done_ = 0;
};

}  // namespace spgbench
