// Tests for the serve subsystem: canonical-key round-trips (re-seeded and
// stage-permuted spellings of the same problem collide, genuinely distinct
// problems do not), solver-spec normalization, LRU eviction order, the
// request protocol's exit-2-style diagnostics, and the request stream as
// net::SocketServer serves it for spgcmp_serve's --in/stdin and --replay:
// byte-identical cache hits at 1 and 4 pool threads, over-limit grids and
// graphs refused with code 2, request-log replay,
// the shutdown drain (every accepted request is answered, never hung or
// dropped), the frame cap, a FIFO opened before its writer, one cache
// shared with a socket client, and borrowed fds handed back as found.
// The alias path: textual variants of a request hit byte-identically
// without materializing it, near misses stay misses, the cache counters
// read as the canonical path alone made them, an entry evicted between
// the alias probe and the counted lookup is solved as a miss, and compact
// keys are equal exactly when text keys are.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/net.hpp"
#include "net/socket_server.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "solve/registry.hpp"
#include "spg/generator.hpp"
#include "obs/metrics.hpp"
#include "util/json.hpp"
#include "util/jsonl.hpp"
#include "util/rng.hpp"
#include "util/stop_signal.hpp"
#include "util/thread_pool.hpp"

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

/// A fresh path under the system temp dir, removed on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("spgcmp_serve_" + std::to_string(::getpid()) + "_" +
               std::to_string(next_id_++) + "_" + tag)) {
    fs::remove(path_);
  }
  ~TempPath() { fs::remove(path_); }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  static inline std::atomic<int> next_id_{0};
  fs::path path_;
};

/// The stack spgcmp_serve builds: a solve pool, a memo cache, an optional
/// request log, and the engine over them.
struct Stack {
  explicit Stack(std::size_t threads, const std::string& log_path = {})
      : pool(threads),
        log(log_path.empty()
                ? std::nullopt
                : std::optional<util::JsonlWriter>(std::in_place, log_path)),
        engine(pool, cache, log ? &*log : nullptr) {}

  serve::MemoCache cache{1024};
  util::ThreadPool pool;
  std::optional<util::JsonlWriter> log;
  serve::Engine engine;
};

int open_out(const TempPath& path) {
  return ::open(path.str().c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
}

/// Poll `done` until it holds, for at most 30 s.
template <typename Pred>
void wait_until(Pred done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream is(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

struct ServeRun {
  serve::ServerSummary summary;
  std::vector<std::string> lines;
};

/// Serve `text` as the request stream, regular files on both fds, and
/// collect the response lines.
ServeRun run_text(serve::Engine& engine, const std::string& text,
                  const std::atomic<bool>* stop = nullptr,
                  net::SocketServerOptions opt = {}) {
  const TempPath in_path("in"), out_path("out");
  std::ofstream(in_path.str()) << text;
  const int in = ::open(in_path.str().c_str(), O_RDONLY);
  const int out = open_out(out_path);
  EXPECT_GE(in, 0);
  EXPECT_GE(out, 0);
  net::SocketServer server(nullptr, net::Stream{in, out}, engine, opt);
  ServeRun run;
  run.summary = server.run(stop).serve;
  ::close(in);
  ::close(out);
  run.lines = read_lines(out_path.str());
  return run;
}

ServeRun run_lines(serve::Engine& engine,
                   const std::vector<std::string>& requests,
                   const std::atomic<bool>* stop = nullptr) {
  std::string text;
  for (const auto& r : requests) text += r + "\n";
  return run_text(engine, text, stop);
}

/// spgcmp_serve --replay: the log itself as the stream, answers to
/// /dev/null, lines not logged again.
serve::ServerSummary replay(serve::Engine& engine,
                            const std::string& log_path) {
  const int in = ::open(log_path.c_str(), O_RDONLY);
  const int out = ::open("/dev/null", O_WRONLY);
  EXPECT_GE(in, 0);
  EXPECT_GE(out, 0);
  net::SocketServer server(nullptr, net::Stream{in, out, /*log=*/false},
                           engine, {});
  const serve::ServerSummary summary = server.run(nullptr).serve;
  ::close(in);
  ::close(out);
  return summary;
}

/// The raw "report":{...} tail of a response line (byte-identity checks).
std::string report_tail(const std::string& line) {
  const auto pos = line.find("\"report\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return pos == std::string::npos ? std::string() : line.substr(pos);
}

/// A response line without its id and wall time: what must repeat byte
/// for byte between a miss and every answer built from its entry.
std::string without_id_and_wall(std::string line) {
  line.erase(1, line.find("\"status\"") - 1);  // the leading "id" member
  const auto wall = line.find("\"wall_us\"");
  line.erase(wall, line.find(',', wall) + 1 - wall);
  return line;
}

/// The seed-5 shared instance as an explicit `spg` request (no id).
std::string explicit_request() {
  std::ostringstream spg_text;
  test_graph().serialize(spg_text);
  std::ostringstream os;
  util::JsonWriter w(os, /*indent=*/-1);
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
  return os.str();
}

/// Submit `line` to `engine`; the future holds its answer.  The callback
/// owns the promise, so it outlives the pool task that fulfils it.
std::future<serve::Engine::Result> submit(serve::Engine& engine,
                                          const std::string& line) {
  auto done = std::make_shared<std::promise<serve::Engine::Result>>();
  auto answer = done->get_future();
  engine.submit(line, /*log_line=*/false, nullptr,
                [done](serve::Engine::Result r) { done->set_value(std::move(r)); });
  return answer;
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
  const auto req_gen =
      serve::parse_request(util::parse_json(gen_request(1, 5, "greedy")));
  const auto req_explicit =
      serve::parse_request(util::parse_json(explicit_request()));
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

/// The payload a counted lookup returns, "" on a miss.
std::string payload_of(serve::MemoCache& cache, const std::string& key) {
  const auto hit = cache.lookup(key);
  return hit ? hit->payload : std::string();
}

TEST(MemoCache, LruEvictionOrderAndCounters) {
  serve::MemoCache cache(2);
  EXPECT_FALSE(cache.lookup("a").has_value());
  cache.insert("a", "A");
  cache.insert("b", "B");
  EXPECT_EQ(payload_of(cache, "a"), "A");  // bumps a over b
  cache.insert("c", "C");                          // evicts b, the LRU entry
  EXPECT_FALSE(cache.lookup("b").has_value());
  EXPECT_EQ(payload_of(cache, "a"), "A");
  EXPECT_EQ(payload_of(cache, "c"), "C");

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
  EXPECT_EQ(payload_of(cache, key('a')), "A");
  EXPECT_FALSE(cache.lookup(key('b')).has_value());
  EXPECT_EQ(payload_of(cache, key('c')), "C");
  EXPECT_EQ(cache.stats().size, 2u);
}

TEST(MemoCache, CapacityZeroDisablesCaching) {
  serve::MemoCache cache(0);
  cache.insert("a", "A");
  EXPECT_FALSE(cache.lookup("a").has_value());
  EXPECT_EQ(cache.stats().size, 0u);
}

// --------------------------------------------------------------- stream --

TEST(Stream, HitsAreFreeAndByteIdenticalAcrossThreadCounts) {
  const std::vector<std::string> requests = {
      gen_request(1, 5, "greedy"), gen_request(2, 5, "greedy"),
      gen_request(3, 9, "greedy")};

  std::vector<ServeRun> runs;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Stack stack(threads);
    runs.push_back(run_lines(stack.engine, requests));
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

TEST(Stream, StatsRequestAnswersLiveSnapshotInOrder) {
  Stack stack(2);
  const auto run = run_lines(stack.engine, {gen_request(1, 5, "greedy"),
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
  // One solve ran before the stats request was answered (the engine
  // snapshots only after every earlier request), so the cache already
  // counts its miss.
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

TEST(Stream, AnswersMalformedRequestsInOrderWithCode2) {
  Stack stack(2);
  const auto run = run_lines(
      stack.engine, {"this is not json", gen_request(1, 5, "greedy"),
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

TEST(Stream, OverLimitGridsAndGraphsAnsweredCode2AtOnce) {
  // A grid side above 16 or a generated graph above 10 000 stages is
  // refused before anything is built: a 64x64 route table alone would take
  // ~11 GB.  Sides past INT_MAX are refused too, not wrapped to 1 row or a
  // negative count, and so is a StreamIt index no int can hold.
  const auto request = [](int id, const std::string& generator, const std::string& grid) {
    return R"({"id":)" + std::to_string(id) + R"(,"generator":)" + generator +
           R"(,"topology":)" + grid + R"(,"solver":"greedy","period":1.0})";
  };
  const std::string small = R"({"n":12,"ymax":3,"seed":5})";
  const std::string mesh = R"({"rows":3,"cols":3})";
  Stack stack(1);
  const auto run = run_lines(
      stack.engine,
      {request(1, small, R"({"rows":17,"cols":3})"), request(2, small, R"({"rows":3,"cols":64})"),
       request(3, small, R"({"rows":4294967297,"cols":3})"),
       request(4, small, R"({"rows":2147483648,"cols":3})"),
       request(5, R"({"n":10001,"ymax":3})", mesh),
       request(6, R"({"n":12,"ymax":1000000000000})", mesh),
       R"({"id":7,"streamit":1e300,"solver":"greedy","period":1.0})",
       gen_request(8, 5, "greedy")});

  ASSERT_EQ(run.lines.size(), 8u);
  EXPECT_EQ(run.summary.errors, 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    const auto doc = util::parse_json(run.lines[i]);
    EXPECT_EQ(doc.at("id").as_number("id"), static_cast<double>(i + 1));
    EXPECT_EQ(doc.at("code").as_number("code"), 2.0) << run.lines[i];
    EXPECT_NE(doc.at("error").as_string("error").find("expected an integer in [1, "),
              std::string::npos)
        << run.lines[i];
  }
  const auto ok = util::parse_json(run.lines[7]);
  EXPECT_EQ(ok.at("status").as_string("status"), "ok");
  EXPECT_EQ(ok.at("id").as_number("id"), 8.0);

  // The limits themselves are accepted.
  EXPECT_NO_THROW((void)serve::parse_request(util::parse_json(
      request(9, small, R"({"rows":16,"cols":16})"))));
  EXPECT_NO_THROW(
      (void)serve::parse_request(util::parse_json(request(10, R"({"n":10000,"ymax":3})", mesh))));
}

TEST(Stream, BlankLinesSkippedAndTornLastLineSubmitted) {
  Stack stack(1);
  // No trailing newline: the torn last line is still a request.
  const auto run =
      run_text(stack.engine, "\n\n" + gen_request(1, 5, "greedy") + "\n\n" +
                                 gen_request(2, 5, "greedy"));
  ASSERT_EQ(run.lines.size(), 2u);
  EXPECT_EQ(run.summary.accepted, 2u);
  EXPECT_EQ(run.summary.hits, 1u);
  EXPECT_EQ(util::parse_json(run.lines[1]).at("id").as_number("id"), 2.0);
}

TEST(Stream, CachePersistsAcrossRunsAndReplayRebuildsItWithoutRelogging) {
  const TempPath log("log.jsonl");
  {
    Stack stack(1, log.str());
    const auto first = run_lines(stack.engine, {gen_request(1, 5, "greedy")});
    EXPECT_EQ(first.summary.hits, 0u);
    // The cache lives on the engine, not the run.
    const auto second = run_lines(stack.engine, {gen_request(2, 5, "greedy")});
    EXPECT_EQ(second.summary.hits, 1u);
  }
  ASSERT_EQ(read_lines(log.str()).size(), 2u);

  // A fresh stack on the same log replays it to warm its cache: the second
  // logged line already hits, and a live duplicate afterwards is free.
  Stack stack(1, log.str());
  const auto replayed = replay(stack.engine, log.str());
  EXPECT_EQ(replayed.accepted, 2u);
  EXPECT_EQ(replayed.hits, 1u);
  EXPECT_EQ(read_lines(log.str()).size(), 2u);  // replayed lines not re-logged
  // The replay gave the rebuilt entry its alias as it went, writing
  // nothing new to the log: a repeat with yet another id hits by its text.
  const auto& alias_hits = obs::Registry::instance().counter("serve.alias_hits");
  const std::uint64_t before = alias_hits.value();
  const auto live = run_lines(stack.engine, {gen_request(3, 5, "greedy")});
  EXPECT_EQ(live.summary.hits, 1u);
  EXPECT_EQ(alias_hits.value(), before + 1);
  EXPECT_EQ(live.summary.cache.misses, 1u);  // only the replay's cold solve
  EXPECT_EQ(read_lines(log.str()).size(), 3u);  // live lines still are
}

TEST(Stream, ShutdownDrainAnswersEveryAcceptedRequest) {
  Stack stack(2);

  // Warm the cache so a duplicate stays answerable during the drain.
  (void)run_lines(stack.engine, {gen_request(0, 5, "greedy")});

  // Three requests down a pipe whose write end stays open, so the run can
  // only end by the stop flag; it is raised once the engine has all three.
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const std::string text = gen_request(1, 5, "greedy") + "\n" +
                           gen_request(2, 11, "greedy") + "\n" +
                           gen_request(3, 5, "greedy") + "\n";
  ASSERT_EQ(::write(fds[1], text.data(), text.size()),
            static_cast<ssize_t>(text.size()));
  const TempPath out_path("out");
  const int out = open_out(out_path);
  ASSERT_GE(out, 0);

  std::atomic<bool> stop{false};
  net::SocketServer server(nullptr, net::Stream{fds[0], out}, stack.engine, {});
  net::SocketSummary sock;
  std::thread loop([&] { sock = server.run(&stop); });
  wait_until([&] { return stack.engine.lifetime().accepted >= 4; });
  stop.store(true, std::memory_order_relaxed);
  loop.join();
  ::close(fds[0]);
  ::close(fds[1]);
  ::close(out);
  const serve::ServerSummary& summary = sock.serve;

  EXPECT_TRUE(summary.interrupted);
  EXPECT_EQ(summary.accepted, 3u);
  // The drain contract: every accepted request is answered — ok or a
  // clean code-3 shutdown error, never dropped.
  EXPECT_EQ(summary.answered, 3u);
  EXPECT_EQ(summary.ok + summary.errors + summary.shutdown_refused, 3u);
  EXPECT_EQ(summary.errors, 0u);

  const auto lines = read_lines(out_path.str());
  EXPECT_EQ(lines.size(), 3u);
  for (const auto& line : lines) {
    const auto doc = util::parse_json(line);
    const std::string status = doc.at("status").as_string("status");
    if (status == "error") {
      EXPECT_EQ(doc.at("code").as_number("code"), 3.0);
    } else {
      EXPECT_EQ(status, "ok");
    }
  }

  // Duplicates of cached work are served even mid-drain: the two seed-5
  // requests hit the warm cache regardless of when the flag was seen.
  EXPECT_GE(summary.hits, 2u);
}

TEST(Stream, OversizedLineAnsweredCode2ThenResyncs) {
  Stack stack(1);
  net::SocketServerOptions opt;
  opt.max_frame_bytes = 256;
  const auto run = run_text(
      stack.engine,
      std::string(1024, 'x') + "\n" + gen_request(7, 5, "greedy") + "\n",
      nullptr, opt);
  ASSERT_EQ(run.lines.size(), 2u);
  const auto err = util::parse_json(run.lines[0]);
  EXPECT_EQ(err.at("code").as_number("code"), 2.0);
  EXPECT_NE(err.at("error").as_string("error").find("exceeds 256 bytes"),
            std::string::npos);
  const auto ok = util::parse_json(run.lines[1]);
  EXPECT_EQ(ok.at("status").as_string("status"), "ok");
  EXPECT_EQ(ok.at("id").as_number("id"), 7.0);
}

TEST(Stream, FifoOpenedBeforeAnyWriterIsServedOnceOneWrites) {
  Stack stack(1);
  const TempPath fifo("fifo"), out_path("out");
  ASSERT_EQ(::mkfifo(fifo.str().c_str(), 0600), 0);
  // spgcmp_serve --in's open: nonblocking, so it returns before a writer.
  const int in = ::open(fifo.str().c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(in, 0);
  const int out = open_out(out_path);
  ASSERT_GE(out, 0);

  net::SocketServer server(nullptr, net::Stream{in, out}, stack.engine, {});
  net::SocketSummary sock;
  std::thread loop([&] { sock = server.run(nullptr); });
  // Not synchronization: time for the loop to poll the writerless FIFO,
  // which must not read as EOF.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::ofstream writer(fifo.str());
    writer << gen_request(1, 5, "greedy") << "\n";
  }
  loop.join();  // the writer's close is the stream's EOF
  ::close(in);
  ::close(out);

  EXPECT_FALSE(sock.serve.interrupted);
  EXPECT_EQ(sock.serve.accepted, 1u);
  const auto lines = read_lines(out_path.str());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(util::parse_json(lines[0]).at("status").as_string("status"), "ok");
}

TEST(Stream, SharesOneCacheWithASocketClientInOneRun) {
  Stack stack(2);
  const TempPath sock_path("sock"), in_path("in"), out_path("out");
  std::ofstream(in_path.str()) << gen_request(1, 5, "greedy") << "\n";
  const int in = ::open(in_path.str().c_str(), O_RDONLY);
  const int out = open_out(out_path);
  ASSERT_GE(in, 0);
  ASSERT_GE(out, 0);
  net::Listener listener(net::parse_address(sock_path.str()));

  std::atomic<bool> stop{false};
  net::SocketServer server(&listener, net::Stream{in, out}, stack.engine, {});
  net::SocketSummary summary;
  std::thread loop([&] { summary = server.run(&stop); });

  // The stream's solve lands first; with a listener its EOF does not end
  // the run, and a socket client asking the same problem gets the hit.
  wait_until([&] { return !read_lines(out_path.str()).empty(); });
  const int fd = net::connect_to(net::parse_address(sock_path.str()));
  const std::string req = gen_request(2, 5, "greedy") + "\n";
  ASSERT_EQ(::send(fd, req.data(), req.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(req.size()));
  ::shutdown(fd, SHUT_WR);
  std::string answer;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof buf, 0)) > 0;) {
    answer.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  stop.store(true, std::memory_order_relaxed);
  loop.join();
  ::close(in);
  ::close(out);

  const auto stream_lines = read_lines(out_path.str());
  ASSERT_EQ(stream_lines.size(), 1u);
  ASSERT_FALSE(answer.empty());
  answer.pop_back();  // the newline
  EXPECT_EQ(util::parse_json(stream_lines[0]).at("cache").as_string("cache"),
            "miss");
  EXPECT_EQ(util::parse_json(answer).at("cache").as_string("cache"), "hit");
  EXPECT_EQ(report_tail(stream_lines[0]), report_tail(answer));
  EXPECT_EQ(summary.connections, 1u);
  EXPECT_EQ(summary.serve.accepted, 2u);
  EXPECT_EQ(summary.serve.hits, 1u);
  EXPECT_TRUE(summary.serve.interrupted);
}

TEST(Stream, BorrowedFdsKeepTheirFileStatusFlags) {
  // One socketpair end as both the stream's input and (dup'd) output: two
  // fds on one open file description, as a terminal on stdin and stdout.
  Stack stack(1);
  int sp[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
  const int in = sp[0];
  const int out = ::dup(sp[0]);
  ASSERT_GE(out, 0);
  const int in_flags = ::fcntl(in, F_GETFL, 0);
  const int out_flags = ::fcntl(out, F_GETFL, 0);
  ASSERT_EQ(in_flags & O_NONBLOCK, 0);

  const std::string req = gen_request(1, 5, "greedy") + "\n";
  ASSERT_EQ(::write(sp[1], req.data(), req.size()),
            static_cast<ssize_t>(req.size()));
  ::shutdown(sp[1], SHUT_WR);
  net::SocketServer server(nullptr, net::Stream{in, out}, stack.engine, {});
  const auto summary = server.run(nullptr);
  EXPECT_EQ(summary.serve.answered, 1u);

  EXPECT_EQ(::fcntl(in, F_GETFL, 0), in_flags);
  EXPECT_EQ(::fcntl(out, F_GETFL, 0), out_flags);
  // The loop never closes a borrowed fd: the answer is still readable
  // from the peer, and both fds are still open.
  char buf[4096];
  EXPECT_GT(::recv(sp[1], buf, sizeof buf, 0), 0);
  EXPECT_EQ(::close(out), 0);
  EXPECT_EQ(::close(in), 0);
  ::close(sp[1]);
}

TEST(StopSignal, RaisedSignalSetsFlagAndServerExitsInterrupted) {
  util::install_stop_handlers();
  util::clear_stop_flag();
  ASSERT_EQ(std::raise(SIGTERM), 0);
  EXPECT_TRUE(util::stop_flag().load());

  // With the flag already up the server reads nothing and exits
  // interrupted; every accepted request is still answered.
  Stack stack(1);
  const auto run = run_lines(stack.engine, {gen_request(1, 5, "greedy")},
                             &util::stop_flag());
  EXPECT_TRUE(run.summary.interrupted);
  EXPECT_EQ(run.summary.answered, run.summary.accepted);
  util::clear_stop_flag();
}

// ---------------------------------------------------------------- alias --

TEST(Alias, VariantsHitByteIdentical) {
  // One problem spelt nine ways: the first is a miss, every other one hits
  // by its text with the miss's key and report bytes and no evaluator call.
  const std::string body =
      R"("generator":{"n":12,"ymax":3,"seed":5,"ccr":1},)"
      R"("topology":{"rows":3,"cols":3},"solver":"greedy","period":1)";
  const std::vector<std::string> variants = {
      "{\"id\":1," + body + "}",
      "{\"id\":\"two\"," + body + "}",
      "{" + body + "}",
      R"({"period":1,"solver":"greedy","topology":{"cols":3,"rows":3},)"
      R"("generator":{"seed":5,"ccr":1,"ymax":3,"n":12},"id":4})",
      R"({"id":5,"generator":{"n":12.0,"ymax":3,"seed":5,"ccr":1.0},)"
      R"("topology":{"rows":3,"cols":3.0},"solver":"greedy","period":1.0})",
      R"({"id":6,"generator":{"n":12,"ymax":3,"seed":5,"ccr":10e-1},)"
      R"("topology":{"rows":3,"cols":3},"solver":"greedy","period":1e0})",
      "  {  \"id\" : 7 ,\t" + body + " }  ",
      R"({"id":null,"generator":{"n":12,"ymax":3,"seed":5,"ccr":1},)"
      R"("topology":{"rows":3,"cols":3},"solver":"greedy","period":1})",
      R"({ "solver" : "greedy", "id" : 9, "period" : 1,)"
      R"( "topology" : { "cols" : 3, "rows" : 3 },)"
      R"( "generator" : { "ccr" : 1, "n" : 12, "seed" : 5, "ymax" : 3 } })"};
  // One pool thread: with two, a repeat can probe while the miss is still
  // solving, find no alias yet and hit through the canonical path.
  Stack stack(1);
  const auto& alias_hits = obs::Registry::instance().counter("serve.alias_hits");
  const std::uint64_t before = alias_hits.value();
  const auto run = run_lines(stack.engine, variants);
  ASSERT_EQ(run.lines.size(), variants.size());
  EXPECT_EQ(run.summary.cache.misses, 1u);
  EXPECT_EQ(run.summary.hits, variants.size() - 1);
  EXPECT_EQ(alias_hits.value() - before, variants.size() - 1);
  const auto cold = util::parse_json(run.lines[0]);
  EXPECT_EQ(cold.at("cache").as_string("cache"), "miss");
  for (std::size_t i = 1; i < run.lines.size(); ++i) {
    const auto doc = util::parse_json(run.lines[i]);
    EXPECT_EQ(doc.at("cache").as_string("cache"), "hit") << run.lines[i];
    EXPECT_EQ(doc.at("request_evals").as_number("evals"), 0.0);
    EXPECT_EQ(doc.at("key").as_string("key"), cold.at("key").as_string("key"));
    EXPECT_EQ(report_tail(run.lines[i]), report_tail(run.lines[0]));
  }
  // Each answer echoes its own id.
  EXPECT_EQ(util::parse_json(run.lines[1]).at("id").as_string("id"), "two");
  EXPECT_EQ(run.lines[2].rfind(R"({"id": null,)", 0), 0u) << run.lines[2];
  EXPECT_EQ(util::parse_json(run.lines[8]).at("id").as_number("id"), 9.0);
}

TEST(Alias, NearMissesStayDistinct) {
  // Each differs from the first in one value its alias keeps: all misses.
  const auto request = [](const std::string& generator, const std::string& grid,
                          const std::string& solver, const std::string& period) {
    return R"({"generator":)" + generator + R"(,"topology":)" + grid +
           R"(,"solver":)" + solver + R"(,"period":)" + period + "}";
  };
  const std::string gen = R"({"n":12,"ymax":3,"seed":5,"ccr":1})";
  const std::string grid = R"({"rows":3,"cols":3})";
  const std::vector<std::string> requests = {
      request(gen, grid, R"("greedy")", "1"),
      request(gen, grid, R"("greedy")", "0.1"),
      request(R"({"n":12,"ymax":3,"seed":6,"ccr":1})", grid, R"("greedy")", "1"),
      request(R"({"n":12,"ymax":3,"seed":5,"ccr":2})", grid, R"("greedy")", "1"),
      request(gen, R"({"rows":3,"cols":4})", R"("greedy")", "1"),
      request(gen, R"({"rows":4,"cols":3})", R"("greedy")", "1"),
      request(gen, grid, R"x("random(trials=5)")x", "1"),
      request(gen, grid, R"x("random(trials=6)")x", "1"),
      request(gen, grid, R"("random")", "1")};
  Stack stack(2);
  const auto run = run_lines(stack.engine, requests);
  ASSERT_EQ(run.lines.size(), requests.size());
  for (const auto& line : run.lines) {
    EXPECT_EQ(util::parse_json(line).at("cache").as_string("cache"), "miss") << line;
  }
  EXPECT_EQ(run.summary.cache.misses, requests.size());
  EXPECT_EQ(run.summary.cache.size, requests.size());
}

TEST(Alias, CountersMatchTheCanonicalPath) {
  // Misses, alias hits, canonical-path hits (the explicit form of a
  // generated graph), errors and stats frames.  The cache fields and the
  // counters are the ones the daemon answered before requests had
  // aliases (spgcmp_serve --threads=1 on this script), written in here.
  const std::string spg_form = explicit_request();
  const std::vector<std::string> script = {
      gen_request(1, 5, "greedy"),                        // miss
      gen_request(2, 5, "greedy"),                        // hit (alias)
      "{\"id\":3," + spg_form.substr(1),                  // hit (canonical)
      "{\"id\":4," + spg_form.substr(1),                  // hit (alias)
      gen_request(5, 9, "greedy"),                        // miss
      "this is not json",                                 // error
      R"({"id":[7],"generator":{"n":12,"ymax":3,"seed":5,"ccr":1},)"
      R"("topology":{"rows":3,"cols":3},"solver":"greedy","period":1})",  // error
      gen_request(8, 5, "bogus_solver"),                  // error, after a miss
      R"({"id":"s1","stats":true})",
      R"({"topology":{"cols":3,"rows":3},"id":10,"period":1.0,"solver":"greedy",)"
      R"("generator":{"ccr":1,"seed":9,"ymax":3,"n":12}})",  // hit (alias)
      gen_request(11, 5, "greedy", 0.5),                  // miss
      R"({"id":"s2","stats":true})"};
  const std::vector<std::string> expected_cache = {
      "miss", "hit", "hit", "hit", "miss", "", "", "", "", "hit", "miss", ""};
  // Two pool threads: a stats frame holds back every later request until
  // its snapshot is taken, so its counters do not depend on the pool.
  Stack stack(2);
  const auto run = run_lines(stack.engine, script);
  ASSERT_EQ(run.lines.size(), script.size());
  for (std::size_t i = 0; i < script.size(); ++i) {
    const auto doc = util::parse_json(run.lines[i]);
    const auto* cache = doc.find("cache");
    EXPECT_EQ(cache == nullptr ? "" : cache->as_string("cache"), expected_cache[i])
        << run.lines[i];
  }
  struct Counters {
    double hits, misses, evictions, size, accepted, answered, ok, errors;
  };
  const auto counters = [&](std::size_t i) {
    const auto doc = util::parse_json(run.lines[i]);
    const auto& stats = doc.at("stats");
    const auto& c = stats.at("cache");
    const auto& s = stats.at("summary");
    return Counters{c.at("hits").number,     c.at("misses").number,
                    c.at("evictions").number, c.at("size").number,
                    s.at("accepted").number,  s.at("answered").number,
                    s.at("ok").number,        s.at("errors").number};
  };
  for (const auto& [line, want] :
       {std::pair{std::size_t{8}, Counters{3, 3, 0, 2, 12, 8, 5, 3}},
        std::pair{std::size_t{11}, Counters{4, 4, 0, 3, 12, 11, 8, 3}}}) {
    const Counters got = counters(line);
    EXPECT_EQ(got.hits, want.hits) << run.lines[line];
    EXPECT_EQ(got.misses, want.misses);
    EXPECT_EQ(got.evictions, want.evictions);
    EXPECT_EQ(got.size, want.size);
    EXPECT_EQ(got.accepted, want.accepted);
    EXPECT_EQ(got.answered, want.answered);
    EXPECT_EQ(got.ok, want.ok);
    EXPECT_EQ(got.errors, want.errors);
  }
}

TEST(Stats, FramesCountExactlyTheRequestsBeforeThemAtAnyPoolSize) {
  // Misses, repeats under new ids and stats frames, many times over: every
  // frame's summary and cache counters must be the ones of the requests
  // before it, whatever the pool size and however the pool interleaves
  // them.  `accepted` is left out: it counts requests at submission, so it
  // reads "as of now".
  std::vector<std::string> script;
  int id = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    script.push_back(gen_request(++id, seed, "greedy"));      // miss
    script.push_back(gen_request(++id, seed, "greedy"));      // hit
    script.push_back(R"({"id":"s)" + std::to_string(seed) + R"(","stats":true})");
    script.push_back(gen_request(++id, seed, "greedy"));      // hit
    script.push_back(gen_request(++id, seed + 100, "greedy", 0.5));  // miss
  }
  script.push_back(R"({"id":"last","stats":true})");
  const auto frames = [&](const ServeRun& run) {
    std::vector<std::string> out;
    for (const auto& line : run.lines) {
      const auto doc = util::parse_json(line);
      const auto* stats = doc.find("stats");
      if (stats == nullptr) continue;
      std::ostringstream os;
      for (const char* k : {"answered", "ok", "hits", "errors", "shutdown_refused",
                            "stats_requests"}) {
        os << k << '=' << stats->at("summary").at(k).number << ' ';
      }
      for (const char* k : {"hits", "misses", "evictions", "size"}) {
        os << "cache." << k << '=' << stats->at("cache").at(k).number << ' ';
      }
      out.push_back(os.str());
    }
    return out;
  };
  std::vector<std::string> want;
  {
    Stack one(1);
    want = frames(run_lines(one.engine, script));
  }
  ASSERT_EQ(want.size(), 5u);
  EXPECT_EQ(want.back(),
            "answered=20 ok=20 hits=8 errors=0 shutdown_refused=0 stats_requests=4 "
            "cache.hits=8 cache.misses=8 cache.evictions=0 cache.size=8 ");
  for (const std::size_t threads : {2u, 4u}) {
    for (int round = 0; round < 50; ++round) {
      Stack stack(threads);
      ASSERT_EQ(frames(run_lines(stack.engine, script)), want)
          << threads << " threads, round " << round;
    }
  }
}

/// `test_gate`: greedy, except that the first solve after arm() blocks
/// until release() and then throws, so that solve inserts nothing.
struct Gate {
  std::mutex m;
  std::condition_variable cv;
  bool armed = false, entered = false, released = false;

  void arm() {
    const std::lock_guard lk(m);
    armed = true;
    entered = released = false;
  }
  void wait_entered() {
    std::unique_lock lk(m);
    cv.wait(lk, [&] { return entered; });
  }
  void release() {
    {
      const std::lock_guard lk(m);
      released = true;
    }
    cv.notify_all();
  }
  /// Called by each solve; true when this one was the armed solve.
  bool pass() {
    std::unique_lock lk(m);
    if (!armed) return false;
    armed = false;
    entered = true;
    cv.notify_all();
    cv.wait(lk, [&] { return released; });
    return true;
  }
};

Gate& gate() {
  static Gate g;
  static const solve::SolverRegistrar reg(
      {"test_gate", "greedy behind a test gate (test-only)", {}, false},
      [](const solve::SolverOptions&, const solve::SolveContext& ctx,
         std::unique_ptr<heuristics::Heuristic>)
          -> std::unique_ptr<heuristics::Heuristic> {
        class Gated final : public heuristics::Heuristic {
         public:
          explicit Gated(std::unique_ptr<heuristics::Heuristic> inner)
              : inner_(std::move(inner)) {}
          [[nodiscard]] std::string name() const override { return "Gated"; }
          [[nodiscard]] heuristics::Result run(const spg::Spg& g, const cmp::Platform& p,
                                               double T) const override {
            if (gate().pass()) throw std::runtime_error("gate closed");
            return inner_->run(g, p, T);
          }

         private:
          std::unique_ptr<heuristics::Heuristic> inner_;
        };
        return std::make_unique<Gated>(
            solve::SolverRegistry::instance().make("greedy", ctx));
      });
  return g;
}

TEST(Alias, EntryEvictedAfterTheProbeIsSolvedAsAMiss) {
  // The alias probe and the counted lookup are two steps; a full cache can
  // evict the entry between them.  Forcing that order deterministically:
  //   1. W misses on problem A and blocks in its (armed) solve, holding
  //      A's coalescing slot.
  //   2. A second engine over the same cache solves A, under the text Y
  //      will send: the first solve, which inserts A with Y's alias.
  //   3. Y probes its alias (a hit: A is cached), registers, and waits
  //      behind W on A's key.
  //   4. Z, a different problem, registers after Y (so after Y's probe)
  //      and its insert evicts A from the one-entry cache.
  //   5. W is released and fails, inserting nothing; only then does Y make
  //      its counted lookup, which misses, and Y solves A as a miss.
  Gate& g = gate();
  serve::MemoCache cache(1);
  util::ThreadPool pool(3), other_pool(1);
  serve::Engine engine(pool, cache, nullptr), other(other_pool, cache, nullptr);
  const auto request_a = [](int id) { return gen_request(id, 5, "test_gate"); };

  g.arm();
  auto w_answer = submit(engine, request_a(1));
  g.wait_entered();

  // EXPECT, not ASSERT, until W is released: returning early would leave
  // it blocked in the gate while the pool joins.
  const serve::Engine::Result first = submit(other, request_a(2)).get();
  EXPECT_EQ(first.kind, serve::ResponseKind::OkMiss) << first.line;

  auto y_answer = submit(engine, request_a(3));
  const serve::Engine::Result z = submit(engine, gen_request(4, 9, "greedy")).get();
  EXPECT_EQ(z.kind, serve::ResponseKind::OkMiss) << z.line;
  EXPECT_EQ(cache.stats().evictions, 1u);  // Z's insert evicted A

  g.release();
  const serve::Engine::Result w = w_answer.get();
  EXPECT_EQ(w.kind, serve::ResponseKind::Error);
  EXPECT_NE(w.line.find("gate closed"), std::string::npos) << w.line;

  const serve::Engine::Result y = y_answer.get();
  ASSERT_EQ(y.kind, serve::ResponseKind::OkMiss) << y.line;
  EXPECT_EQ(without_id_and_wall(y.line), without_id_and_wall(first.line));
  EXPECT_EQ(util::parse_json(y.line).at("id").as_number("id"), 3.0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 4u);  // W, the first solve, Z and Y
  EXPECT_EQ(stats.evictions, 2u);
}

// ---------------------------------------------------------- compact key --

TEST(CompactKey, EqualExactlyWhenTextKeysEqual) {
  // Seeded random SPGs on mesh, torus and hetero grids from 2x2 to 6x6:
  // each problem as generated, stage-permuted, through the generator form
  // and the explicit-spg form of a request, and with a one-ulp change to a
  // stage's work, an edge's bytes, the period and a mode speed.
  struct Problem {
    spg::Spg g;
    cmp::Platform p;
    double period;
  };
  const auto ulp = [](double v) {
    return std::nextafter(v, std::numeric_limits<double>::infinity());
  };
  const char* topologies[] = {"mesh", "torus", "hetero"};
  util::Rng rng(2024);
  const auto below = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  std::vector<Problem> problems;
  std::size_t expected_equal = 0;
  for (int i = 0; i < 200; ++i) {
    const std::size_t n = 6 + below(25);
    const int ymax = 2 + static_cast<int>(below(3));
    const std::uint64_t seed = 1 + below(1000000);
    const std::string topo = topologies[i % 3];
    const int rows = 2 + static_cast<int>(below(5));
    const int cols = 2 + static_cast<int>(below(5));
    const double period = i % 2 == 0 ? 1.0 : 0.1;

    std::ostringstream gen;
    gen << R"({"generator":{"n":)" << n << R"(,"ymax":)" << ymax << R"(,"seed":)"
        << seed << R"(,"ccr":1},"topology":{"name":")" << topo << R"(","rows":)"
        << rows << R"(,"cols":)" << cols << R"(},"solver":"greedy","period":)"
        << util::json_number(period) << "}";
    const serve::Request req = serve::parse_request(util::parse_json(gen.str()));

    std::ostringstream text;
    req.spg.serialize(text);
    std::ostringstream spg_form;
    {
      util::JsonWriter w(spg_form, /*indent=*/-1);
      w.begin_object();
      w.kv("spg", text.str());
      w.key("topology");
      w.begin_object();
      w.kv("name", topo);
      w.kv("rows", rows);
      w.kv("cols", cols);
      w.end_object();
      w.kv("solver", "greedy");
      w.kv("period", period);
      w.end_object();
    }
    const serve::Request spg_req =
        serve::parse_request(util::parse_json(spg_form.str()));
    EXPECT_EQ(req.key, spg_req.key) << gen.str();

    const std::size_t size = req.spg.size();
    std::vector<spg::Stage> stages(size);
    for (std::size_t s = 0; s < size; ++s) stages[size - 1 - s] = req.spg.stage(s);
    std::vector<spg::Edge> edges;
    for (const auto& e : req.spg.edges()) {
      edges.push_back(spg::Edge{size - 1 - e.src, size - 1 - e.dst, e.bytes});
    }

    problems.push_back({req.spg, req.platform, period});
    problems.push_back({spg_req.spg, spg_req.platform, period});
    problems.push_back({spg::Spg(std::move(stages), std::move(edges)), req.platform, period});
    expected_equal += 2;

    Problem work{req.spg, req.platform, period};
    const auto k = static_cast<spg::StageId>(below(size));
    work.g.set_work(k, ulp(work.g.stage(k).work));
    problems.push_back(std::move(work));

    Problem bytes{req.spg, req.platform, period};
    const auto e = static_cast<spg::EdgeId>(below(bytes.g.edge_count()));
    bytes.g.set_bytes(e, ulp(bytes.g.edges()[e].bytes));
    problems.push_back(std::move(bytes));

    problems.push_back({req.spg, req.platform, ulp(period)});

    Problem speed{req.spg, req.platform, period};
    const auto& model = speed.p.speeds;
    std::vector<double> speeds, power;
    for (std::size_t m = 0; m < model.mode_count(); ++m) {
      speeds.push_back(model.speed(m));
      power.push_back(model.dynamic_power(m));
    }
    const std::size_t m = below(speeds.size());
    speeds[m] = ulp(speeds[m]);
    speed.p.speeds = cmp::SpeedModel(speeds, power, model.leak_power());
    problems.push_back(std::move(speed));
  }

  // Text -> compact and compact -> text must both be functions.
  std::map<std::string, std::string> compact_of, text_of;
  std::size_t equal_pairs = 0;
  for (const auto& pr : problems) {
    const std::string text = serve::canonical_key(pr.g, pr.p, "greedy", pr.period);
    const std::string compact = serve::compact_key(pr.g, pr.p, "greedy", pr.period);
    const auto [t, fresh_text] = compact_of.emplace(text, compact);
    const auto [c, fresh_compact] = text_of.emplace(compact, text);
    EXPECT_EQ(t->second, compact) << text;
    EXPECT_EQ(c->second, text) << text;
    EXPECT_EQ(fresh_text, fresh_compact);
    if (!fresh_text) ++equal_pairs;
    EXPECT_LT(compact.size(), text.size());
  }
  // The three spellings of each problem met; every one-ulp change did not.
  EXPECT_EQ(equal_pairs, expected_equal);
  EXPECT_EQ(compact_of.size(), problems.size() - expected_equal);
}

}  // namespace
