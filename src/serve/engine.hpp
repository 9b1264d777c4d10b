#pragma once

// The transport-independent request engine behind the serve daemon.
//
// An Engine turns raw newline-delimited request lines into rendered
// response lines: parse, recognise a repeat by its text (protocol.hpp) or
// else materialize the request, coalesce identical in-flight requests
// deterministically, memoize solved reports in the shared MemoCache, and
// answer in-band {"stats":true} control frames from live state.  It knows
// nothing about where lines come from or where responses go: its one
// transport, net::SocketServer, submits the lines of every connection —
// sockets and the stdin/file/FIFO stream alike — and receives completions
// through it, so cache hits are byte-identical whichever way a request
// arrived and the coalescing order stays deterministic.
//
// submit() assigns each line a global sequence number under a lock that
// also orders the pool enqueue, so pool workers start requests in
// submission order — the property the deadlock-freedom of the ordered
// registration wait rests on (a task waiting for its registration turn
// only waits on earlier tasks, which are all already running).
//
// The transport keeps response ordering (a reorder map per connection)
// and the per-run summary; the Engine keeps process-lifetime counters
// that back the "summary" section of the stats document.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "obs/delta.hpp"
#include "serve/cache.hpp"
#include "util/jsonl.hpp"
#include "util/thread_annotations.hpp"
#include "util/thread_pool.hpp"

namespace spgcmp::serve {

/// Classification of one rendered response line.
enum class ResponseKind { OkMiss, OkHit, Error, Shutdown, Stats };

/// What one serve run (every connection of one SocketServer::run) did.
struct ServerSummary {
  std::uint64_t accepted = 0;   ///< non-blank request lines read
  std::uint64_t answered = 0;   ///< response lines written
  std::uint64_t ok = 0;         ///< status:ok responses (hits + misses)
  std::uint64_t hits = 0;       ///< ok responses served from the cache
  std::uint64_t errors = 0;     ///< status:error responses (codes 1/2)
  std::uint64_t shutdown_refused = 0;  ///< code-3 responses during drain
  std::uint64_t stats_requests = 0;    ///< in-band {"stats":true} answers
  bool interrupted = false;     ///< the stop flag ended the run
  MemoCache::Stats cache;       ///< cache counters at return time
};

/// Count one emitted response into a per-run summary.
void count_response(ResponseKind kind, ServerSummary& summary);

/// Render the stats document shared by the in-band {"stats":true} answer,
/// `spgcmp_serve --stats-out`, and the spgcmp_serve_client scrape:
///   {"summary":{...},"cache":{...},"metrics":{...},"deltas":{...}}
/// `metrics_json` and `deltas_json` are spliced in verbatim (compact
/// single-value JSON).  `indent < 0` emits the compact single-line form.
[[nodiscard]] std::string render_stats_document(const ServerSummary& s,
                                                const std::string& metrics_json,
                                                const std::string& deltas_json,
                                                int indent = -1);

class Engine {
 public:
  struct Result {
    std::string line;  ///< rendered response (no trailing newline)
    ResponseKind kind = ResponseKind::Error;
  };

  /// `log` (optional) receives every submitted line that asks to be
  /// logged, under an internal lock so concurrent submitters interleave
  /// whole lines.
  Engine(util::ThreadPool& pool, MemoCache& cache, util::JsonlWriter* log);

  /// Submit one raw request line.  `done` is invoked exactly once, from a
  /// pool worker, with the rendered response.  `stop` (the submitting
  /// transport's stop flag, may be null) enables the drain refusal path.
  /// Thread-safe; concurrent submitters are serialized so coalescing
  /// stays deterministic in submission order.
  void submit(const std::string& line, bool log_line,
              const std::atomic<bool>* stop, std::function<void(Result)> done)
      SPGCMP_EXCLUDES(submit_mutex_, solve_mutex_, log_mutex_);

  /// Block until every submitted request has completed.
  void wait_idle() { pool_.wait_idle(); }

  /// Process-lifetime view of everything this engine answered (the
  /// "summary" section of the stats document).  `interrupted` is always
  /// false here: a live scrape happens before the transport has drained,
  /// and per-run interruption belongs to the transport's summary.
  [[nodiscard]] ServerSummary lifetime() const;

  /// The stats document from live engine state; every call advances the
  /// shared rate window.
  [[nodiscard]] std::string stats_document(int indent = -1);

  /// The rate-window tracker, shared with --stats-out so scrapes and the
  /// exit snapshot advance one window.
  [[nodiscard]] obs::DeltaTracker& deltas() noexcept { return delta_; }

  [[nodiscard]] MemoCache& cache() noexcept { return cache_; }

 private:
  [[nodiscard]] Result handle(const std::string& line, std::uint64_t s,
                              const std::atomic<bool>* stop)
      SPGCMP_EXCLUDES(solve_mutex_);

  /// Take request `s`'s registration turn, enqueueing it under its
  /// compact `key`; keyless requests (malformed or failed parses) pass
  /// null and just cede the turn so later requests can register.
  void register_turn(std::uint64_t s, const std::string* key)
      SPGCMP_EXCLUDES(solve_mutex_);

  /// Releases one request's coalescing-queue slot (and solver claim) on
  /// every exit from handle(), including solver exceptions — a waiter
  /// stuck behind a dead request would deadlock the drain.
  struct Ticket {
    Engine& engine;
    const std::string& key;
    std::uint64_t s;
    bool claimed = false;
    ~Ticket() SPGCMP_EXCLUDES(engine.solve_mutex_);
  };
  friend struct Ticket;

  util::ThreadPool& pool_;
  MemoCache& cache_;
  util::JsonlWriter* const log_ SPGCMP_PT_GUARDED_BY(log_mutex_);
  util::Mutex log_mutex_;
  obs::DeltaTracker delta_;

  // Serializes sequence assignment with the pool enqueue (see header).
  util::Mutex submit_mutex_;
  std::uint64_t seq_ SPGCMP_GUARDED_BY(submit_mutex_) = 0;

  // Deterministic coalescing of identical in-flight requests: every
  // request registers its cache key in submission order, the
  // lowest-numbered in-flight request for a key solves it, later ones
  // wait and serve the memoized payload as ordinary hits.
  util::Mutex solve_mutex_;
  util::CondVar cv_solved_;
  std::uint64_t next_register_ SPGCMP_GUARDED_BY(solve_mutex_) = 0;
  std::map<std::string, std::set<std::uint64_t>> key_queue_
      SPGCMP_GUARDED_BY(solve_mutex_);
  std::set<std::string> solving_ SPGCMP_GUARDED_BY(solve_mutex_);
  /// Submitted-but-unanswered sequence numbers.  A stats frame waits until
  /// it is the lowest entry and holds its registration turn until its
  /// snapshot is taken, so the snapshot reflects exactly the earlier
  /// requests (the waits are on strictly earlier sequences, which have all
  /// started — same deadlock-freedom argument as above).
  std::set<std::uint64_t> inflight_seqs_ SPGCMP_GUARDED_BY(solve_mutex_);

  // Lifetime counters behind lifetime().
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> ok_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> stats_requests_{0};
};

}  // namespace spgcmp::serve
