#pragma once

// The serve daemon's wire protocol: newline-delimited JSON, one request
// per line in, one response per line out, answered strictly in request
// order.
//
// Request:
//   {
//     "id": 7,                         // optional; echoed verbatim
//     "spg": "spg 3 2\nstage ...",     // one of spg | generator | streamit
//     "generator": {"n": 50, "ymax": 6, "seed": 1, "ccr": 1.0},
//     "streamit": {"index": 3, "ccr": 10.0},   // or just 3
//     "topology": {"name": "mesh", "rows": 4, "cols": 4},  // default 4x4 mesh
//     "solver": "dpa2d1d+refine",      // registry spec
//     "options": "rounds=4",           // sugar for solver(options)
//     "period": 0.004
//   }
// Unknown top-level keys are rejected — a typoed knob must not silently
// select a default.
//
// Control request:
//   {"id": 9, "stats": true}
// Answered in-band, in order, with a live observability snapshot:
//   {"id":9,"status":"ok",
//    "stats":{"summary":{...},"cache":{...},"metrics":{...},"deltas":{...}}}
// The "stats" member is the shared stats document rendered by
// serve::render_stats_document — the same shape `--stats-out` writes and
// spgcmp_serve_client scrapes: `summary` the engine's lifetime response
// counters, `cache` the MemoCache counters, `metrics` the full
// obs::Registry snapshot (counters/gauges/histograms), `deltas` the
// per-window counter rates (obs::DeltaTracker).  A request carrying
// "stats" is a control frame: its other members besides "id" are not
// interpreted.  The frame waits for every earlier request and holds back
// every later one until its snapshot is taken, so `summary` and `cache`
// count exactly the requests before it.  `summary.accepted` and the
// registry `metrics` stay "as of now": they count requests at submission
// (`accepted`, `serve.requests`, `pool.tasks`), so a later request read
// before the snapshot already shows in them.
//
// A repeated request is recognised by its text.  request_alias re-renders
// the document compactly without its top-level "id" (object members
// stable-sorted by key, numbers through util::json_number), so spellings
// that differ only in id, member order, whitespace or number form (1 vs
// 1.0) share one alias.  The alias is exact text, never a digest: equal
// aliases parse to equal documents, which build the same problem.  The
// engine probes the memo cache's alias index before parse_request; on a
// hit it answers from the entry without regenerating the graph, building
// the platform or formatting a key.  A request that misses the alias
// index is materialized here, and once it hits or solves on its compact
// key its alias is recorded on that entry, so every variant and every
// entry a --replay rebuilt gets its alias on first use.
//
// Response (ok):
//   {"id":7,"status":"ok","cache":"hit"|"miss","key":"<16-hex digest>",
//    "request_evals":N,"wall_us":X,"report":{...}}
// `request_evals` counts evaluator calls performed *for this request* —
// 0 on a cache hit, by construction.  `report` is the cached payload,
// byte-identical between the cold solve and every later hit; it excludes
// wall time (which lives in the frame) so payloads are also identical
// across runs and thread counts.
//
// Response (error):
//   {"id":7,"status":"error","code":2,"error":"..."}
// Codes mirror the CLI exit-code contract of tool_common.hpp: 2 for
// configuration mistakes (malformed JSON/request, unknown solver or
// topology), 1 for internal errors, 3 when the daemon is draining for
// shutdown and refuses to start a new solve.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cmp/cmp.hpp"
#include "serve/cache.hpp"
#include "solve/solve.hpp"
#include "spg/spg.hpp"
#include "util/json.hpp"

namespace spgcmp::serve {

/// Malformed or self-contradictory request document.  Answered with
/// code 2, like the CLIs' usage errors.
class RequestError : public std::runtime_error {
 public:
  explicit RequestError(const std::string& what) : std::runtime_error(what) {}
};

/// A validated, materialized request: the graph is built, the platform
/// constructed, the solver spec normalized and the memo key computed.
struct Request {
  std::string id_json;  ///< the "id" member re-rendered as JSON ("null" if absent)
  spg::Spg spg;
  cmp::Platform platform;
  std::string solver;  ///< normalized spec (canonical.hpp)
  double period = 0.0;
  std::string key;  ///< compact exact key (canonical.hpp compact_key)
};

/// Parse and materialize one request document.  Throws RequestError,
/// solve::SolverError or cmp::TopologyError (all answered with code 2).
/// Formats no text key: that is done once, for a miss's solve.
[[nodiscard]] Request parse_request(const util::JsonValue& doc);

/// The request's alias (see the header comment); empty when `doc` is not
/// an object or holds a non-finite number (json_number writes those as
/// null, so they get no alias).
[[nodiscard]] std::string request_alias(const util::JsonValue& doc);

/// The "id" member re-rendered as JSON ("null" if absent), as
/// parse_request checks it: RequestError unless a string, number or null.
[[nodiscard]] std::string request_id(const util::JsonValue& doc);

/// Render the cacheable report payload of one solve (compact JSON object,
/// no wall time — see the header comment).
[[nodiscard]] std::string render_report(const Request& req,
                                        const solve::SolveReport& report);

/// Render a complete ok-response line (no trailing newline).  `digest` is
/// the text key's fnv1a64, which the memo cache stores with the payload.
[[nodiscard]] std::string render_ok(const std::string& id_json,
                                    std::uint64_t digest,
                                    const std::string& report_payload, bool hit,
                                    std::uint64_t request_evals, double wall_us);

/// The same for a materialized request; formats its text key for the
/// digest.
[[nodiscard]] std::string render_ok(const Request& req,
                                    const std::string& report_payload, bool hit,
                                    std::uint64_t request_evals, double wall_us);

/// Render a complete error-response line (no trailing newline).
[[nodiscard]] std::string render_error(const std::string& id_json, int code,
                                       const std::string& message);

/// Render the answer to an in-band `{"stats":true}` control request.
/// `stats_doc_json` must be one well-formed compact JSON value — the
/// shared stats document of serve::render_stats_document (summary, cache,
/// metrics, deltas), spliced in verbatim so in-band scrapes and
/// `--stats-out` consumers parse one shape.
[[nodiscard]] std::string render_stats(const std::string& id_json,
                                       const std::string& stats_doc_json);

}  // namespace spgcmp::serve
