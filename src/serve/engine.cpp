#include "serve/engine.hpp"

#include <chrono>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/canonical.hpp"
#include "serve/protocol.hpp"
#include "solve/solve.hpp"
#include "util/json.hpp"

namespace spgcmp::serve {

namespace {

using Clock = std::chrono::steady_clock;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

/// The "id" member of a possibly-malformed request document, re-rendered
/// as JSON for the error frame; "null" whenever that is not possible.
std::string id_of(const util::JsonValue& doc) {
  try {
    return request_id(doc);
  } catch (const RequestError&) {
    return "null";
  }
}

}  // namespace

void count_response(ResponseKind kind, ServerSummary& summary) {
  ++summary.answered;
  switch (kind) {
    case ResponseKind::OkMiss: ++summary.ok; break;
    case ResponseKind::OkHit:
      ++summary.ok;
      ++summary.hits;
      break;
    case ResponseKind::Error: ++summary.errors; break;
    case ResponseKind::Shutdown: ++summary.shutdown_refused; break;
    case ResponseKind::Stats:
      ++summary.ok;
      ++summary.stats_requests;
      break;
  }
}

std::string render_stats_document(const ServerSummary& s,
                                  const std::string& metrics_json,
                                  const std::string& deltas_json, int indent) {
  std::ostringstream os;
  {
    util::JsonWriter w(os, indent);
    w.begin_object();
    w.key("summary");
    w.begin_object();
    w.kv("accepted", s.accepted);
    w.kv("answered", s.answered);
    w.kv("ok", s.ok);
    w.kv("hits", s.hits);
    w.kv("errors", s.errors);
    w.kv("shutdown_refused", s.shutdown_refused);
    w.kv("stats_requests", s.stats_requests);
    w.kv("interrupted", s.interrupted);
    w.end_object();
    w.key("cache");
    w.begin_object();
    w.kv("hits", s.cache.hits);
    w.kv("misses", s.cache.misses);
    w.kv("evictions", s.cache.evictions);
    w.kv("size", static_cast<std::uint64_t>(s.cache.size));
    w.kv("capacity", static_cast<std::uint64_t>(s.cache.capacity));
    w.end_object();
    w.key("metrics");
    w.raw(metrics_json);
    w.key("deltas");
    w.raw(deltas_json);
    w.end_object();
  }
  return os.str();
}

Engine::Engine(util::ThreadPool& pool, MemoCache& cache, util::JsonlWriter* log)
    : pool_(pool), cache_(cache), log_(log) {}

ServerSummary Engine::lifetime() const {
  ServerSummary s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.answered = answered_.load(std::memory_order_relaxed);
  s.ok = ok_.load(std::memory_order_relaxed);
  s.hits = hits_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.shutdown_refused = refused_.load(std::memory_order_relaxed);
  s.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  s.cache = cache_.stats();
  return s;
}

std::string Engine::stats_document(int indent) {
  return render_stats_document(lifetime(),
                               obs::Registry::instance().snapshot_json(-1),
                               delta_.sample(), indent);
}

void Engine::submit(const std::string& line, bool log_line,
                    const std::atomic<bool>* stop,
                    std::function<void(Result)> done) {
  accepted_.fetch_add(1, std::memory_order_relaxed);
  if (log_line && log_ != nullptr) {
    const util::MutexLock lk(log_mutex_);
    log_->append_raw(line);
  }
  static auto& m_requests = obs::Registry::instance().counter("serve.requests");
  static auto& m_request_us =
      obs::Registry::instance().histogram("serve.request_us");
  m_requests.inc();

  // Sequence assignment and pool enqueue under one lock: workers start
  // requests in submission order (see the header's deadlock argument).
  const util::MutexLock lk(submit_mutex_);
  const std::uint64_t s = seq_++;
  {
    const util::MutexLock slk(solve_mutex_);
    inflight_seqs_.insert(s);
  }
  pool_.submit([this, s, line, stop, done = std::move(done)] {
    const auto t0 = Clock::now();
    Result result = [&] {
      const obs::Span span("serve.request");
      return handle(line, s, stop);
    }();
    m_request_us.observe(us_since(t0));

    answered_.fetch_add(1, std::memory_order_relaxed);
    static auto& m_hits = obs::Registry::instance().counter("serve.hits");
    static auto& m_misses = obs::Registry::instance().counter("serve.misses");
    static auto& m_errors = obs::Registry::instance().counter("serve.errors");
    static auto& m_refused = obs::Registry::instance().counter("serve.refused");
    static auto& m_stats =
        obs::Registry::instance().counter("serve.stats_requests");
    switch (result.kind) {
      case ResponseKind::OkMiss:
        ok_.fetch_add(1, std::memory_order_relaxed);
        m_misses.inc();
        break;
      case ResponseKind::OkHit:
        ok_.fetch_add(1, std::memory_order_relaxed);
        hits_.fetch_add(1, std::memory_order_relaxed);
        m_hits.inc();
        break;
      case ResponseKind::Error:
        errors_.fetch_add(1, std::memory_order_relaxed);
        m_errors.inc();
        break;
      case ResponseKind::Shutdown:
        refused_.fetch_add(1, std::memory_order_relaxed);
        m_refused.inc();
        break;
      case ResponseKind::Stats:
        ok_.fetch_add(1, std::memory_order_relaxed);
        stats_requests_.fetch_add(1, std::memory_order_relaxed);
        m_stats.inc();
        break;
    }
    {
      // Only now — with every lifetime counter for this request counted —
      // does the sequence leave the in-flight set, so a later stats frame
      // waiting on it snapshots this request's counters too.
      const util::MutexLock slk(solve_mutex_);
      inflight_seqs_.erase(s);
    }
    cv_solved_.notify_all();
    done(std::move(result));
  });
}

void Engine::register_turn(std::uint64_t s, const std::string* key) {
  {
    const util::MutexLock lk(solve_mutex_);
    while (next_register_ != s) cv_solved_.wait(solve_mutex_);
    if (key != nullptr) key_queue_[*key].insert(s);
    ++next_register_;
  }
  cv_solved_.notify_all();
}

Engine::Ticket::~Ticket() {
  {
    const util::MutexLock lk(engine.solve_mutex_);
    const auto it = engine.key_queue_.find(key);
    it->second.erase(s);
    if (it->second.empty()) engine.key_queue_.erase(it);
    if (claimed) engine.solving_.erase(key);
  }
  engine.cv_solved_.notify_all();
}

Engine::Result Engine::handle(const std::string& line, std::uint64_t s,
                              const std::atomic<bool>* stop) {
  util::JsonValue doc;
  try {
    const obs::Span span("serve.parse");
    doc = util::parse_json(line);
  } catch (const util::JsonParseError& e) {
    register_turn(s, nullptr);
    return {render_error("null", 2,
                         std::string("malformed request JSON: ") + e.what()),
            ResponseKind::Error};
  }
  const std::string id = id_of(doc);
  // In-band stats control frame: answered from live state, in order,
  // without touching the solve path.
  if (const util::JsonValue* st = doc.find("stats");
      st != nullptr && st->type == util::JsonValue::Type::Bool && st->boolean) {
    {
      // Snapshot only after every earlier request has completed, and
      // before this frame passes its registration turn on: every later
      // request counts only after its own turn, so the counters are
      // exactly those of the requests before the frame.
      const util::MutexLock lk(solve_mutex_);
      while (next_register_ != s || *inflight_seqs_.begin() != s) {
        cv_solved_.wait(solve_mutex_);
      }
    }
    std::string snapshot;
    try {
      snapshot = stats_document(-1);
    } catch (...) {
      register_turn(s, nullptr);
      throw;
    }
    register_turn(s, nullptr);
    return {render_stats(id, snapshot), ResponseKind::Stats};
  }
  const auto t0 = Clock::now();
  // A repeat is recognised by its text before anything is materialized;
  // the probe counts nothing, so the one counted lookup below keeps the
  // cache counters what the canonical path alone would make them.
  std::string alias;
  std::optional<MemoCache::Aliased> aliased;
  {
    const obs::Span span("serve.alias");
    alias = request_alias(doc);
    if (!alias.empty()) aliased = cache_.find_alias(alias);
  }
  bool registered = false;
  try {
    std::optional<Request> req;
    std::string key;
    std::string id_json;
    if (aliased) {
      id_json = request_id(doc);  // the one check an alias does not cover
      key = std::move(aliased->key);
    } else {
      req = [&] {
        const obs::Span span("serve.parse_request");
        return parse_request(doc);
      }();
      id_json = req->id_json;
      key = std::move(req->key);
    }
    register_turn(s, &key);
    registered = true;

    Ticket ticket{*this, key, s};

    std::optional<MemoCache::Hit> hit;
    {
      // Wait until no one is solving this key and every earlier request
      // for it is done, then probe exactly once: a coalesced waiter sees
      // the fresh entry as an ordinary hit, and per-request lookup counts
      // stay deterministic.
      const util::MutexLock lk(solve_mutex_);
      while (solving_.count(key) != 0 ||
             *key_queue_.find(key)->second.begin() != s) {
        cv_solved_.wait(solve_mutex_);
      }
      const obs::Span lookup_span("serve.lookup");
      hit = cache_.lookup(key);
      if (!hit) {
        if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
          // Draining: don't start new solves; the cache-hit path above
          // still answers what it can.
          return {render_error(id, 3, "daemon is shutting down; solve refused"),
                  ResponseKind::Shutdown};
        }
        solving_.insert(key);
        ticket.claimed = true;
      }
    }
    if (hit) {
      static auto& m_alias_hits =
          obs::Registry::instance().counter("serve.alias_hits");
      if (aliased) {
        m_alias_hits.inc();
      } else {
        cache_.set_alias(key, std::move(alias));
      }
      return {render_ok(id_json, hit->digest, hit->payload, /*hit=*/true, 0,
                        us_since(t0)),
              ResponseKind::OkHit};
    }
    if (!req) {
      // The aliased entry was evicted after the probe (a full cache):
      // materialize the request and solve it like any miss.
      req = parse_request(doc);
      if (req->key != key) {
        throw std::logic_error("serve: an alias named another problem's key");
      }
    }
    // The text key is the wire contract: its digest answers "key" and
    // seeds the solver, so identical problems solve identically.
    const std::uint64_t digest =
        fnv1a64(canonical_key(req->spg, req->platform, req->solver, req->period));
    solve::SolveRequest sreq;
    sreq.spg = &req->spg;
    sreq.platform = &req->platform;
    sreq.period = req->period;
    sreq.seed = digest;
    const auto report = [&] {
      const obs::Span span("serve.solve");
      return solve::run(req->solver, sreq);
    }();
    std::string payload = render_report(*req, report);
    cache_.insert(key, payload, digest);
    cache_.set_alias(key, std::move(alias));
    return {render_ok(id_json, digest, payload, /*hit=*/false,
                      report.stats.evaluator_calls(), us_since(t0)),
            ResponseKind::OkMiss};
  } catch (const RequestError& e) {
    if (!registered) register_turn(s, nullptr);
    return {render_error(id, 2, e.what()), ResponseKind::Error};
  } catch (const solve::SolverError& e) {
    if (!registered) register_turn(s, nullptr);
    return {render_error(id, 2, e.what()), ResponseKind::Error};
  } catch (const cmp::TopologyError& e) {
    if (!registered) register_turn(s, nullptr);
    return {render_error(id, 2, e.what()), ResponseKind::Error};
  } catch (const std::exception& e) {
    if (!registered) register_turn(s, nullptr);
    return {render_error(id, 1, e.what()), ResponseKind::Error};
  }
}

}  // namespace spgcmp::serve
