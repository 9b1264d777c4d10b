#pragma once

// Chrome/Perfetto trace-event writer.
//
// Events accumulate in per-thread append-only buffers (one uncontended
// mutex per buffer, taken only while tracing is on) and are drained into a
// single `{"displayTimeUnit":"ms","traceEvents":[...]}` JSON document by
// trace_stop().  The document loads directly in Perfetto / chrome://tracing.
//
// The RAII `Span` is the instrumentation primitive.  When tracing is
// disabled — the default — constructing one costs a single relaxed atomic
// load plus a branch and emits nothing, so spans can sit on warm paths
// (solver runs, pool task dispatch, serve requests) without perturbing the
// paper outputs or the evaluator benchmarks.
//
// Threads are tagged with small sequential tids.  Work is parallel only
// across independent units (pool tasks, pipeline workers), and a solver runs
// on the thread that calls solve::run, so a thread's events need no link to
// the thread that handed it the work.
//
// Spans still alive when trace_stop() runs are not closed in the output;
// callers stop tracing at top level (obs::ScopedFiles) where no span is
// live.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace spgcmp::obs {

/// True between trace_start() and trace_stop().  Relaxed: instrumentation
/// sites only need an eventually-consistent view.
[[nodiscard]] bool trace_enabled() noexcept;

/// Clear all per-thread buffers, reset the epoch and start recording.
void trace_start();

/// Stop recording, then drain every thread buffer into `os` as one
/// Chrome trace-event JSON document (compact, deterministic field order).
/// Returns the number of events written (excluding metadata records).
std::size_t trace_stop(std::ostream& os);

/// Events discarded because a thread buffer hit its cap (reset by
/// trace_start).
[[nodiscard]] std::uint64_t trace_dropped() noexcept;

/// Emit an instant event (phase "i", scope "t") if tracing is on.
void trace_instant(const char* name) noexcept;

/// RAII scope.  Complete mode (the default) emits one "X" event with the
/// scope's duration at destruction; BeginEnd emits a "B" at construction
/// and an "E" at destruction, which keeps long scopes visible in partial
/// traces and is what the pool layer uses.  Lane emits one "X" event too,
/// but on a track of its own instead of its thread's: the lowest lane no
/// other live Lane span holds.  Spans that overlap without nesting, or end
/// on another thread than they began on (a campaign's shards in the
/// instance pipeline), so leave every track properly nested.
enum class SpanMode { Complete, BeginEnd, Lane };

class Span {
 public:
  /// `name` must outlive the trace (string literals at every call site).
  explicit Span(const char* name, SpanMode mode = SpanMode::Complete) noexcept;
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when tracing was on at construction; use to skip building
  /// argument strings that nobody will see.
  [[nodiscard]] bool active() const noexcept { return state_ != 0; }

  /// Attach a key/value argument to the event (no-op when inactive).
  void detail(std::string_view key, std::string_view value);
  void detail(std::string_view key, std::uint64_t value);

 private:
  const char* name_ = nullptr;
  std::string args_;           // pre-rendered `"k":v` pairs, comma-joined
  std::uint64_t start_us_ = 0;
  std::size_t lane_ = 0;  // Lane mode: the lane this span holds
  int state_ = 0;  // 0 inactive, 1 complete, 2 begin/end, 3 lane
};

}  // namespace spgcmp::obs
