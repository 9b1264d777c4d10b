// Tests for the serve subsystem: canonical-key round-trips (re-seeded and
// stage-permuted spellings of the same problem collide, genuinely distinct
// problems do not), solver-spec normalization, LRU eviction order, the
// request protocol's exit-2-style diagnostics, byte-identical cache hits
// at 1 and 4 pool threads, request-log replay, and the shutdown drain
// (every accepted request is answered, never hung or dropped).

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "spg/generator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stop_signal.hpp"

namespace {

using namespace spgcmp;
namespace fs = std::filesystem;

// The shared solvable instance: n=12 / ymax=3 / seed=5 / ccr=1 on a 3x3
// mesh at a generous period (verified feasible for every paper solver).
constexpr double kPeriod = 1.0;

spg::Spg test_graph(std::uint64_t seed = 5) {
  util::Rng rng(seed);
  spg::Spg g = spg::random_spg(12, 3, rng);
  g.rescale_ccr(1.0);
  return g;
}

/// A generator-form request line for the shared instance.
std::string gen_request(int id, std::uint64_t seed, const std::string& solver,
                        double period = kPeriod) {
  std::ostringstream os;
  util::JsonWriter w(os, /*indent=*/-1);
  w.begin_object();
  w.kv("id", static_cast<std::int64_t>(id));
  w.key("generator");
  w.begin_object();
  w.kv("n", static_cast<std::int64_t>(12));
  w.kv("ymax", static_cast<std::int64_t>(3));
  w.kv("seed", static_cast<std::int64_t>(seed));
  w.kv("ccr", 1.0);
  w.end_object();
  w.key("topology");
  w.begin_object();
  w.kv("rows", 3);
  w.kv("cols", 3);
  w.end_object();
  w.kv("solver", solver);
  w.kv("period", period);
  w.end_object();
  return os.str();
}

struct ServeRun {
  serve::ServerSummary summary;
  std::vector<std::string> lines;
};

ServeRun run_lines(serve::Server& server, const std::vector<std::string>& requests,
              const std::atomic<bool>* stop = nullptr) {
  std::string text;
  for (const auto& r : requests) text += r + "\n";
  std::istringstream in(text);
  std::ostringstream out;
  ServeRun run;
  run.summary = server.serve(in, out, stop);
  std::istringstream lines(out.str());
  std::string line;
  while (std::getline(lines, line)) run.lines.push_back(line);
  return run;
}

/// The raw "report":{...} tail of a response line (byte-identity checks).
std::string report_tail(const std::string& line) {
  const auto pos = line.find("\"report\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return pos == std::string::npos ? std::string() : line.substr(pos);
}

// ------------------------------------------------------------ canonical --

TEST(CanonicalSpec, SortsOptionsTrimsWhitespaceKeepsChains) {
  // Note "candidates" < "cap" lexicographically ('n' < 'p').
  EXPECT_EQ(serve::normalize_solver_spec("exact(candidates=1000, cap=9)"),
            "exact(candidates=1000,cap=9)");
  EXPECT_EQ(serve::normalize_solver_spec(" exact( cap=9 ,candidates=1000 ) "),
            "exact(candidates=1000,cap=9)");
  EXPECT_EQ(serve::normalize_solver_spec(" dpa2d1d + refine( rounds=4 ) "),
            "dpa2d1d+refine(rounds=4)");
  EXPECT_EQ(serve::normalize_solver_spec("greedy()"), "greedy");
  // Nested values keep their parenthesised text intact.
  EXPECT_EQ(serve::normalize_solver_spec("refine(rounds=2, base=exact(cap=9))"),
            "refine(base=exact(cap=9),rounds=2)");
  // Distinct options stay distinct.
  EXPECT_NE(serve::normalize_solver_spec("random(trials=10)"),
            serve::normalize_solver_spec("random(trials=20)"));
}

TEST(CanonicalSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)serve::normalize_solver_spec(""), solve::SolverError);
  EXPECT_THROW((void)serve::normalize_solver_spec("exact(cap=9"),
               solve::SolverError);
  EXPECT_THROW((void)serve::normalize_solver_spec("exact)"), solve::SolverError);
  EXPECT_THROW((void)serve::normalize_solver_spec("exact(cap=9)x"),
               solve::SolverError);
}

TEST(CanonicalKey, StagePermutedSerializationsCollide) {
  const spg::Spg g = test_graph();
  // Same graph with stage ids reversed (edges remapped accordingly) — a
  // different serialization of the identical structure.
  const std::size_t n = g.size();
  std::vector<spg::Stage> stages(n);
  for (std::size_t i = 0; i < n; ++i) stages[n - 1 - i] = g.stage(i);
  std::vector<spg::Edge> edges;
  for (const auto& e : g.edges()) {
    edges.push_back(spg::Edge{n - 1 - e.src, n - 1 - e.dst, e.bytes});
  }
  const spg::Spg permuted(std::move(stages), std::move(edges));
  ASSERT_EQ(permuted.validate(), std::nullopt);

  const auto p = cmp::Platform::reference(3, 3);
  EXPECT_EQ(serve::canonical_key(g, p, "greedy", kPeriod),
            serve::canonical_key(permuted, p, "greedy", kPeriod));
}

TEST(CanonicalKey, DistinctProblemsGetDistinctKeys) {
  const spg::Spg g = test_graph();
  const auto p = cmp::Platform::reference(3, 3);
  const std::string base = serve::canonical_key(g, p, "greedy", kPeriod);

  EXPECT_NE(base, serve::canonical_key(g, p, "greedy", kPeriod * 2));
  EXPECT_NE(base, serve::canonical_key(g, p, "dpa2d1d", kPeriod));
  EXPECT_NE(base, serve::canonical_key(g, cmp::Platform::reference(4, 4),
                                       "greedy", kPeriod));
  EXPECT_NE(base, serve::canonical_key(g, cmp::Platform::reference("torus", 3, 3),
                                       "greedy", kPeriod));
  spg::Spg reweighted = test_graph();
  reweighted.set_work(0, reweighted.stage(0).work * 2.0);
  EXPECT_NE(base, serve::canonical_key(reweighted, p, "greedy", kPeriod));

  EXPECT_EQ(serve::key_digest(base).size(), 16u);
  EXPECT_NE(serve::key_digest(base), serve::key_digest(base + "x"));
}

TEST(CanonicalKey, GeneratorAndExplicitSpgRequestsCollide) {
  // The same problem spelled two ways: generator+seed, and the explicit
  // serialized graph the generator materializes to.
  const spg::Spg g = test_graph();
  std::ostringstream spg_text;
  g.serialize(spg_text);

  std::ostringstream explicit_line;
  {
    util::JsonWriter w(explicit_line, /*indent=*/-1);
    w.begin_object();
    w.kv("spg", spg_text.str());
    w.key("topology");
    w.begin_object();
    w.kv("rows", 3);
    w.kv("cols", 3);
    w.end_object();
    w.kv("solver", "greedy");
    w.kv("period", kPeriod);
    w.end_object();
  }
  const auto req_gen =
      serve::parse_request(util::parse_json(gen_request(1, 5, "greedy")));
  const auto req_explicit =
      serve::parse_request(util::parse_json(explicit_line.str()));
  EXPECT_EQ(req_gen.key, req_explicit.key);
  EXPECT_EQ(req_gen.id_json, "1");
  EXPECT_EQ(req_explicit.id_json, "null");
}

TEST(Protocol, RejectsBadRequestsWithNamedDiagnostics) {
  const auto parse = [](const std::string& text) {
    return serve::parse_request(util::parse_json(text));
  };
  EXPECT_THROW((void)parse("[1, 2]"), serve::RequestError);
  // Unknown members must not silently select defaults.
  EXPECT_THROW((void)parse(R"({"generator":{"n":8},"solver":"greedy",
                               "period":1.0,"bogus":1})"),
               serve::RequestError);
  // Exactly one workload source.
  EXPECT_THROW((void)parse(R"({"solver":"greedy","period":1.0})"),
               serve::RequestError);
  EXPECT_THROW((void)parse(R"({"generator":{"n":8},"streamit":3,
                               "solver":"greedy","period":1.0})"),
               serve::RequestError);
  // Period must be finite and positive.
  EXPECT_THROW((void)parse(R"({"generator":{"n":8},"solver":"greedy",
                               "period":0})"),
               serve::RequestError);
  // A missing required member is a malformed request, not an internal error.
  EXPECT_THROW((void)parse(R"({"generator":{"n":8},"solver":"greedy"})"),
               serve::RequestError);
  // options requires a bare solver name.
  EXPECT_THROW((void)parse(R"json({"generator":{"n":8},"solver":"exact(cap=9)",
                                   "options":"cap=8","period":1.0})json"),
               serve::RequestError);
  // Unknown topologies surface as TopologyError (code 2, with the listing).
  EXPECT_THROW((void)parse(R"({"generator":{"n":8},"solver":"greedy",
                               "period":1.0,
                               "topology":{"name":"ring","rows":3,"cols":3}})"),
               cmp::TopologyError);
  // Infeasible generator shapes are named, not crashed on.
  EXPECT_THROW((void)parse(R"({"generator":{"n":3,"ymax":4},
                               "solver":"greedy","period":1.0})"),
               serve::RequestError);
}

// ---------------------------------------------------------------- cache --

TEST(MemoCache, LruEvictionOrderAndCounters) {
  serve::MemoCache cache(2);
  EXPECT_FALSE(cache.lookup("a").has_value());
  cache.insert("a", "A");
  cache.insert("b", "B");
  EXPECT_EQ(cache.lookup("a").value_or(""), "A");  // bumps a over b
  cache.insert("c", "C");                          // evicts b, the LRU entry
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_EQ(cache.lookup("a").value_or(""), "A");
  EXPECT_EQ(cache.lookup("c").value_or(""), "C");

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(MemoCache, OwnsItsKeys) {
  // The index views the cache's own copy of each key, never the caller's.
  serve::MemoCache cache(2);
  const auto key = [](char c) { return std::string(200, c); };  // past SSO
  cache.insert(key('a'), "A");
  cache.insert(key('b'), "B");
  cache.insert(key('a'), "stale");  // a refresh keeps the first payload
  cache.insert(key('c'), "C");      // evicts b
  EXPECT_EQ(cache.lookup(key('a')).value_or(""), "A");
  EXPECT_FALSE(cache.lookup(key('b')).has_value());
  EXPECT_EQ(cache.lookup(key('c')).value_or(""), "C");
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(MemoCache, CapacityZeroDisablesCaching) {
  serve::MemoCache cache(0);
  cache.insert("a", "A");
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

// --------------------------------------------------------------- server --

TEST(Server, HitsAreFreeAndByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> requests = {
      gen_request(1, 5, "greedy"), gen_request(2, 5, "greedy"),
      gen_request(3, 9, "greedy")};

  std::vector<ServeRun> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    serve::ServerOptions opt;
    opt.threads = threads;
    serve::Server server(opt);
    runs.push_back(run_lines(server, requests));
  }

  for (const auto& run : runs) {
    EXPECT_EQ(run.summary.accepted, 3u);
    ASSERT_EQ(run.lines.size(), 3u);
    EXPECT_EQ(run.summary.ok, 3u);
    EXPECT_EQ(run.summary.hits, 1u);
    EXPECT_EQ(run.summary.cache.misses, 2u);

    const auto cold = util::parse_json(run.lines[0]);
    const auto hit = util::parse_json(run.lines[1]);
    const auto other = util::parse_json(run.lines[2]);
    EXPECT_EQ(cold.at("cache").as_string("cache"), "miss");
    EXPECT_EQ(hit.at("cache").as_string("cache"), "hit");
    EXPECT_EQ(other.at("cache").as_string("cache"), "miss");
    EXPECT_GT(cold.at("request_evals").as_number("evals"), 0.0);
    // The contract: a hit costs zero evaluator calls...
    EXPECT_EQ(hit.at("request_evals").as_number("evals"), 0.0);
    EXPECT_EQ(cold.at("key").as_string("key"), hit.at("key").as_string("key"));
    // ...and serves the byte-identical report payload.
    EXPECT_EQ(report_tail(run.lines[0]), report_tail(run.lines[1]));
    EXPECT_NE(report_tail(run.lines[0]), report_tail(run.lines[2]));
  }
  // Payloads are also byte-identical across pool sizes (deterministic
  // key-derived solver seeds, wall time excluded from the payload).
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(report_tail(runs[0].lines[i]), report_tail(runs[1].lines[i]));
  }
}

TEST(Server, StatsRequestAnswersLiveSnapshotInOrder) {
  serve::ServerOptions opt;
  opt.threads = 2;
  serve::Server server(opt);
  const auto run = run_lines(server, {gen_request(1, 5, "greedy"),
                                      R"({"id":2,"stats":true})"});

  ASSERT_EQ(run.lines.size(), 2u);
  EXPECT_EQ(run.summary.accepted, 2u);
  EXPECT_EQ(run.summary.ok, 2u);
  EXPECT_EQ(run.summary.stats_requests, 1u);
  EXPECT_EQ(run.summary.errors, 0u);

  // The stats answer arrives in request order, after the solve's answer.
  EXPECT_EQ(util::parse_json(run.lines[0]).at("status").as_string("status"),
            "ok");
  const auto stats = util::parse_json(run.lines[1]);
  EXPECT_EQ(stats.at("id").as_number("id"), 2.0);
  EXPECT_EQ(stats.at("status").as_string("status"), "ok");
  const auto& body = stats.at("stats");
  const auto& cache = body.at("cache");
  // One solve ran before the stats request was answered (in-order reorder
  // buffer), so the cache already counts its miss.
  EXPECT_EQ(cache.at("misses").as_number("misses"), 1.0);
  EXPECT_EQ(cache.at("size").as_number("size"), 1.0);
  // The embedded metrics snapshot is the live registry document; the
  // registry is process-global, so only shape is asserted here.
  const auto& metrics = body.at("metrics");
  EXPECT_NE(metrics.find("histograms"), nullptr);
  const auto* counters = metrics.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_NE(counters->find("serve.requests"), nullptr);
}

TEST(Server, AnswersMalformedRequestsInOrderWithCode2) {
  serve::ServerOptions opt;
  opt.threads = 2;
  serve::Server server(opt);
  const auto run = run_lines(
      server, {"this is not json", gen_request(1, 5, "greedy"),
               gen_request(2, 5, "bogus_solver"),
               R"({"id":"x","generator":{"n":8},"solver":"greedy"})"});

  ASSERT_EQ(run.lines.size(), 4u);
  EXPECT_EQ(run.summary.errors, 3u);
  EXPECT_EQ(run.summary.ok, 1u);

  const auto bad_json = util::parse_json(run.lines[0]);
  EXPECT_EQ(bad_json.at("status").as_string("status"), "error");
  EXPECT_EQ(bad_json.at("code").as_number("code"), 2.0);
  EXPECT_NE(bad_json.at("error").as_string("error").find("malformed request"),
            std::string::npos);

  EXPECT_EQ(util::parse_json(run.lines[1]).at("status").as_string("status"),
            "ok");

  // Unknown solver: code 2, same classification as the CLIs' exit code.
  const auto bad_solver = util::parse_json(run.lines[2]);
  EXPECT_EQ(bad_solver.at("code").as_number("code"), 2.0);
  EXPECT_NE(bad_solver.at("error").as_string("error").find("bogus_solver"),
            std::string::npos);

  // Errors echo the request id.
  const auto bad_period = util::parse_json(run.lines[3]);
  EXPECT_EQ(bad_period.at("code").as_number("code"), 2.0);
  EXPECT_EQ(bad_period.at("id").as_string("id"), "x");
}

TEST(Server, CachePersistsAcrossCallsAndReplayRebuildsIt) {
  const fs::path log = fs::temp_directory_path() /
                       ("spgcmp_serve_log_" +
                        std::to_string(
                            ::testing::UnitTest::GetInstance()->random_seed()) +
                        ".jsonl");
  fs::remove(log);
  {
    serve::ServerOptions opt;
    opt.threads = 1;
    opt.log_path = log.string();
    serve::Server server(opt);
    const auto first = run_lines(server, {gen_request(1, 5, "greedy")});
    EXPECT_EQ(first.summary.hits, 0u);
    // The cache lives on the Server, not the serve() call.
    const auto second = run_lines(server, {gen_request(2, 5, "greedy")});
    EXPECT_EQ(second.summary.hits, 1u);
  }
  // A fresh server replays the request log to warm its cache: the second
  // logged line already hits, and a live duplicate afterwards is free.
  serve::ServerOptions opt;
  opt.threads = 1;
  serve::Server server(opt);
  const auto replayed = server.replay(log.string());
  EXPECT_EQ(replayed.accepted, 2u);
  EXPECT_EQ(replayed.hits, 1u);
  const auto live = run_lines(server, {gen_request(3, 5, "greedy")});
  EXPECT_EQ(live.summary.hits, 1u);
  EXPECT_EQ(live.summary.cache.misses, 1u);  // only the replay's cold solve
  fs::remove(log);
}

/// Serves `text` one character at a time and raises `flag` once the
/// trigger_line-th newline has been consumed — a deterministic way to
/// interrupt the server mid-batch.
class TriggerBuf final : public std::streambuf {
 public:
  TriggerBuf(std::string text, std::size_t trigger_line,
             std::atomic<bool>& flag)
      : text_(std::move(text)), trigger_(trigger_line), flag_(&flag) {}

 protected:
  int underflow() override {
    if (pos_ >= text_.size()) return traits_type::eof();
    ch_ = text_[pos_++];
    if (ch_ == '\n' && ++newlines_ == trigger_) {
      flag_->store(true, std::memory_order_relaxed);
    }
    setg(&ch_, &ch_, &ch_ + 1);
    return traits_type::to_int_type(ch_);
  }

 private:
  std::string text_;
  std::size_t trigger_;
  std::atomic<bool>* flag_;
  std::size_t pos_ = 0;
  std::size_t newlines_ = 0;
  char ch_ = '\0';
};

TEST(Server, ShutdownDrainAnswersEveryAcceptedRequest) {
  serve::ServerOptions opt;
  opt.threads = 2;
  serve::Server server(opt);

  // Warm the cache so a duplicate stays answerable during the drain.
  (void)run_lines(server, {gen_request(0, 5, "greedy")});

  // Three requests; the stop flag is raised while the last line is being
  // read, so all three are accepted and then the server must drain.
  std::atomic<bool> stop{false};
  std::string text = gen_request(1, 5, "greedy") + "\n" +
                     gen_request(2, 11, "greedy") + "\n" +
                     gen_request(3, 5, "greedy") + "\n";
  TriggerBuf buf(text, 3, stop);
  std::istream in(&buf);
  std::ostringstream out;
  const auto summary = server.serve(in, out, &stop);

  EXPECT_TRUE(summary.interrupted);
  EXPECT_EQ(summary.accepted, 3u);
  // The drain contract: every accepted request is answered — ok or a
  // clean code-3 shutdown error, never dropped.
  EXPECT_EQ(summary.answered, 3u);
  EXPECT_EQ(summary.ok + summary.errors + summary.shutdown_refused, 3u);
  EXPECT_EQ(summary.errors, 0u);

  std::istringstream lines(out.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ++count;
    const auto doc = util::parse_json(line);
    const std::string status = doc.at("status").as_string("status");
    if (status == "error") {
      EXPECT_EQ(doc.at("code").as_number("code"), 3.0);
    } else {
      EXPECT_EQ(status, "ok");
    }
  }
  EXPECT_EQ(count, 3u);

  // Duplicates of cached work are served even mid-drain: the two seed-5
  // requests hit the warm cache regardless of when the flag was seen.
  EXPECT_GE(summary.hits, 2u);
}

TEST(StopSignal, RaisedSignalSetsFlagAndServerExitsInterrupted) {
#ifndef _WIN32
  util::install_stop_handlers();
  util::clear_stop_flag();
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(util::stop_flag().load());

  // With the flag already up the server refuses the batch cleanly: every
  // accepted request is still answered.
  serve::ServerOptions opt;
  opt.threads = 1;
  serve::Server server(opt);
  const auto run =
      run_lines(server, {gen_request(1, 5, "greedy")}, &util::stop_flag());
  EXPECT_TRUE(run.summary.interrupted);
  EXPECT_EQ(run.summary.answered, run.summary.accepted);
  util::clear_stop_flag();
#endif
}

}  // namespace
