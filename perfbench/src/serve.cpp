// serve_replay: a socket-served serve::Engine driven as a closed loop.
//
// The daemon is in-process: a net::Listener on a Unix-domain socket,
// net::SocketServer's poll loop on its own thread, one serve::Engine over a
// solve pool of --threads workers and a memo cache larger than the request
// set.  --clients connections each send a request and wait for its answer
// before sending the next.
//
//   cold phase  --cold distinct generator requests, each once: every answer
//               must be an ok miss (solver and evaluator work);
//   hot phase   --hot requests replaying the cold set in seeded shuffled
//               rounds: every answer must be an ok hit with zero evaluator
//               calls and a report byte-identical to the cold miss.
//
// With --trace=1 spgbench also times the serve layer's public functions
// on every distinct request (parse_json, parse_request, canonical_key,
// MemoCache::lookup, render_report, render_ok) and util::json_number over
// every double a canonical key formats.

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <random>
#include <thread>

#include "common.hpp"
#include "net/net.hpp"
#include "net/socket_server.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace spgbench {

namespace {

using namespace spgcmp;

const char* const kSolvers[] = {"peft", "greedy+refine", "dpa2d1d+refine", "anneal"};
constexpr const char* kSocket = "serve.sock";

struct Problem {
  std::string body;  ///< request members after "id" (no braces)
  std::size_t solver = 0;
};

/// The cold request set: a stratified cycle over n x mesh x period x
/// solver, each request with its own generator seed, elevation and CCR.
std::vector<Problem> make_problems(const Options& opt) {
  std::mt19937_64 rng(opt.seed);
  const double ccrs[] = {10.0, 1.0, 0.1};
  std::vector<Problem> out;
  out.reserve(opt.cold);
  for (std::size_t i = 0; i < opt.cold; ++i) {
    const std::size_t n = (i % 2) == 0 ? 50 : 150;
    const int side = (i / 2) % 2 == 0 ? 4 : 6;
    const char* period = (i / 4) % 2 == 0 ? "1" : "0.1";
    const std::size_t solver = (i / 8) % 4;
    const std::uint64_t gen_seed = rng() % 1000000000000ULL;
    const std::uint64_t ymax = 2 + rng() % (n == 50 ? 9 : 14);
    const double ccr = ccrs[rng() % 3];
    std::string body = "\"generator\":{\"n\":" + std::to_string(n) +
                       ",\"ymax\":" + std::to_string(ymax) +
                       ",\"seed\":" + std::to_string(gen_seed) + ",\"ccr\":" +
                       (ccr == 10.0 ? "10" : ccr == 1.0 ? "1" : "0.1") +
                       "},\"topology\":{\"name\":\"mesh\",\"rows\":" +
                       std::to_string(side) + ",\"cols\":" + std::to_string(side) +
                       "},\"solver\":\"" + kSolvers[solver] +
                       "\",\"period\":" + period;
    out.push_back({std::move(body), solver});
  }
  return out;
}

std::string request_line(std::size_t id, const Problem& p) {
  return "{\"id\":" + std::to_string(id) + "," + p.body + "}";
}

/// A blocking line-framed client connection.
class Conn {
 public:
  Conn() : fd_(net::connect_to(net::parse_address(kSocket))) {
    timeval tv{/*tv_sec=*/60, /*tv_usec=*/0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  /// Send one request line, wait for one response line.
  std::string call(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      off += static_cast<std::size_t>(n);
    }
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string out = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return out;
      }
      char tmp[65536];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("connection closed before a response");
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buf_;
};

/// The in-process daemon; the event loop runs until destruction.
class Daemon {
 public:
  explicit Daemon(std::size_t threads, std::size_t cache_capacity)
      : pool_(threads),
        cache_(cache_capacity),
        engine_(pool_, cache_, nullptr),
        listener_(net::parse_address(kSocket)),
        server_(listener_, engine_, options()),
        loop_([this] { (void)server_.run(&stop_); }) {}

  ~Daemon() {
    stop_.store(true, std::memory_order_relaxed);
    loop_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

 private:
  static net::SocketServerOptions options() {
    net::SocketServerOptions o;
    o.poll_interval_ms = 20;  // prompt teardown between passes
    return o;
  }

  util::ThreadPool pool_;
  serve::MemoCache cache_;
  serve::Engine engine_;
  net::Listener listener_;
  net::SocketServer server_;
  std::atomic<bool> stop_{false};
  std::thread loop_;
};

/// Offset of the value of member `name` in a response frame (after the
/// colon and any blanks), npos when absent.
std::size_t member(std::string_view line, std::string_view name) {
  const std::string pat = "\"" + std::string(name) + "\":";
  auto p = line.find(pat);
  if (p == std::string_view::npos) return p;
  p += pat.size();
  while (p < line.size() && line[p] == ' ') ++p;
  return p;
}

/// String member of a flat response frame; empty when absent.
std::string_view str_member(std::string_view line, std::string_view name) {
  const auto p = member(line, name);
  if (p == std::string_view::npos || p >= line.size() || line[p] != '"') return {};
  return line.substr(p + 1, line.find('"', p + 1) - p - 1);
}

/// `request_evals` of a response frame, -1 when absent.
long long evals_member(std::string_view line) {
  const auto p = member(line, "request_evals");
  if (p == std::string_view::npos) return -1;
  return std::atoll(std::string(line.substr(p, 24)).c_str());
}

/// The `report` payload: the frame's last member.
std::string_view report_member(std::string_view line) {
  const auto p = member(line, "report");
  if (p == std::string_view::npos || line.size() < p + 1) return {};
  return line.substr(p, line.size() - p - 1);
}

/// Whether a report payload says no feasible mapping was found.
bool infeasible(std::string_view payload) {
  const auto p = member(payload, "success");
  return p != std::string_view::npos && payload.substr(p, 5) == "false";
}

struct Sample {
  double send_us = 0.0;  ///< since the pass's time origin
  double recv_us = 0.0;
};

/// The requests `order` (indices into `problems`), split round-robin
/// across the clients, each a closed loop; fills `samples`.  `check(j,
/// response)` runs on the client thread and returns a failure message or "".
template <typename Check>
void run_phase(std::vector<std::unique_ptr<Conn>>& conns,
               const std::vector<Problem>& problems,
               const std::vector<std::size_t>& order, std::size_t id_base,
               double origin, Check&& check, std::vector<Sample>& samples,
               Ledger& ledger) {
  const std::size_t n = conns.size();
  std::vector<std::vector<std::string>> fails(n);
  std::vector<std::string> errors(n);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < n; ++c) {
    clients.emplace_back([&, c] {
      try {
        for (std::size_t j = c; j < order.size(); j += n) {
          const std::string line =
              request_line(id_base + j, problems[order[j]]) + "\n";
          samples[j].send_us = since_us(origin);
          const std::string resp = conns[c]->call(line);
          samples[j].recv_us = since_us(origin);
          std::string why = check(j, resp);
          if (!why.empty()) fails[c].push_back(std::move(why));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : clients) t.join();
  ledger.attempted += order.size();
  for (std::size_t c = 0; c < n; ++c) {
    for (auto& f : fails[c]) ledger.fail(std::move(f));
    if (errors[c].empty()) continue;
    // A dead connection loses the rest of its share of the phase.
    for (std::size_t j = c; j < order.size(); j += n) {
      if (samples[j].recv_us == 0.0) {
        ledger.fail("client " + std::to_string(c) + ": " + errors[c]);
      }
    }
  }
}

std::vector<double> latencies_us(const std::vector<Sample>& s) {
  std::vector<double> out;
  out.reserve(s.size());
  for (const auto& x : s) {
    if (x.recv_us > 0.0) out.push_back(x.recv_us - x.send_us);
  }
  return out;
}

/// Seeded shuffled rounds over the cold set, `hot` requests in total.
std::vector<std::size_t> hot_order(const Options& opt) {
  std::mt19937_64 rng(opt.seed ^ 0x5eedULL);
  std::vector<std::size_t> round(opt.cold), out;
  for (std::size_t i = 0; i < opt.cold; ++i) round[i] = i;
  out.reserve(opt.hot);
  while (out.size() < opt.hot) {
    for (std::size_t i = round.size(); i > 1; --i) {
      std::swap(round[i - 1], round[rng() % i]);
    }
    for (const auto i : round) {
      if (out.size() < opt.hot) out.push_back(i);
    }
  }
  return out;
}

/// Rebuild the SolveReport a cached payload was rendered from, so
/// render_report can be timed on real inputs.
solve::SolveReport report_from_payload(const util::JsonValue& doc) {
  solve::SolveReport r;
  r.result.success = doc.at("success").boolean;
  if (r.result.success) {
    r.result.eval.energy = doc.at("energy").as_number("energy");
    r.result.eval.period = doc.at("achieved_period").as_number("achieved_period");
    r.result.eval.active_cores =
        static_cast<int>(doc.at("active_cores").as_number("active_cores"));
    for (const auto& c : doc.at("core_of").as_array("core_of")) {
      r.result.mapping.core_of.push_back(static_cast<int>(c.number));
    }
    for (const auto& m : doc.at("modes").as_array("modes")) {
      r.result.mapping.mode_of_core.push_back(static_cast<std::size_t>(m.number));
    }
  } else {
    r.result.failure = doc.at("failure").as_string("failure");
  }
  const auto& ev = doc.at("evals");
  r.stats.full_evals = static_cast<std::uint64_t>(ev.at("full").number);
  r.stats.placement_evals = static_cast<std::uint64_t>(ev.at("placement").number);
  r.stats.incremental_evals = static_cast<std::uint64_t>(ev.at("incremental").number);
  r.stats.batch_evals = static_cast<std::uint64_t>(ev.at("batch").number);
  return r;
}

/// Every double canonical_key formats for one request.
std::vector<double> key_doubles(const serve::Request& req) {
  std::vector<double> v{req.period, req.platform.topology.grid().bandwidth()};
  const auto& topo = req.platform.topology;
  if (topo.heterogeneous()) {
    for (int c = 0; c < topo.core_count(); ++c) v.push_back(topo.core_speed_scale(c));
  }
  const auto& sp = req.platform.speeds;
  for (std::size_t k = 0; k < sp.mode_count(); ++k) {
    v.push_back(sp.speed(k));
    v.push_back(sp.dynamic_power(k));
  }
  v.push_back(sp.leak_power());
  v.push_back(req.platform.comm.energy_per_byte);
  v.push_back(req.platform.comm.leak_power);
  for (std::size_t i = 0; i < req.spg.size(); ++i) {
    v.push_back(req.spg.stage(static_cast<spg::StageId>(i)).work);
  }
  for (const auto& e : req.spg.edges()) v.push_back(e.bytes);
  return v;
}

/// Time the serve layer's public functions on every distinct request.
void time_layer_calls(const std::vector<Problem>& problems,
                      const std::vector<std::string>& payloads, JsonWriter& out,
                      Ledger& ledger) {
  std::vector<double> parse_json_us, parse_request_us, key_us, lookup_us,
      render_report_us, render_ok_us;
  double number_ns = 0.0;
  std::size_t number_values = 0;
  std::size_t sink = 0;
  std::size_t mismatched = 0;
  serve::MemoCache cache(problems.size() + 1);

  std::vector<serve::Request> reqs;
  reqs.reserve(problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const std::string line = request_line(i, problems[i]);
    double t0 = now_s();
    const util::JsonValue doc = util::parse_json(line);
    parse_json_us.push_back(since_us(t0));
    t0 = now_s();
    reqs.push_back(serve::parse_request(doc));
    parse_request_us.push_back(since_us(t0));
    const serve::Request& req = reqs.back();
    t0 = now_s();
    const std::string key =
        serve::canonical_key(req.spg, req.platform, req.solver, req.period);
    key_us.push_back(since_us(t0));
    sink += key.size();
    cache.insert(req.key, payloads[i]);

    const std::vector<double> values = key_doubles(req);
    t0 = now_s();
    for (const double v : values) sink += util::json_number(v).size();
    number_ns += since_us(t0) * 1e3;
    number_values += values.size();
  }
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const serve::Request& req = reqs[i];
    double t0 = now_s();
    const auto hit = cache.lookup(req.key);
    lookup_us.push_back(since_us(t0));
    if (!hit) ledger.notes.push_back("layer timing: lookup missed");

    const solve::SolveReport rep = report_from_payload(util::parse_json(payloads[i]));
    t0 = now_s();
    const std::string payload = serve::render_report(req, rep);
    render_report_us.push_back(since_us(t0));
    mismatched += payload == payloads[i] ? 0 : 1;
    t0 = now_s();
    sink += serve::render_ok(req, payload, true, 0, 123.0).size();
    render_ok_us.push_back(since_us(t0));
  }
  if (mismatched != 0) {
    ledger.notes.push_back("layer timing: " + std::to_string(mismatched) +
                           " re-rendered reports differ from their payloads");
  }
  out.key("layer_calls");
  out.begin_object();
  out.kv("parse_json_us", parse_json_us);
  out.kv("parse_request_us", parse_request_us);
  out.kv("canonical_key_us", key_us);
  out.kv("cache_lookup_us", lookup_us);
  out.kv("render_report_us", render_report_us);
  out.kv("render_ok_us", render_ok_us);
  out.kv("json_number_ns", number_values == 0 ? 0.0 : number_ns / number_values);
  out.kv("json_number_values", number_values);
  out.kv("sink", sink);
  out.end_object();
}

}  // namespace

void run_serve_replay(const Options& opt, JsonWriter& out, Ledger& ledger) {
  out.key("knobs");
  out.begin_object();
  out.kv("cold", opt.cold);
  out.kv("hot", opt.hot);
  out.kv("solvers", "peft,greedy+refine,dpa2d1d+refine,anneal");
  out.kv("n", "50,150");
  out.kv("mesh", "4x4,6x6");
  out.kv("period", "1,0.1");
  out.end_object();
  const std::size_t capacity = 2 * opt.cold;

  // Set-up: request generation, engine and listener start, client
  // connections; each pass starts from a fresh daemon and a cold cache.
  std::vector<Problem> problems;
  std::unique_ptr<Daemon> daemon;
  std::vector<std::unique_ptr<Conn>> conns;
  const auto teardown = [&] {
    conns.clear();
    daemon.reset();
  };
  const auto setup = [&] {
    problems = make_problems(opt);
    daemon = std::make_unique<Daemon>(opt.threads, capacity);
    for (std::size_t c = 0; c < opt.clients; ++c) {
      conns.push_back(std::make_unique<Conn>());
    }
  };
  const auto setup_s = setup_samples(teardown, setup, 0.0);
  const std::vector<std::size_t> hot = hot_order(opt);
  std::vector<std::size_t> cold(opt.cold);
  for (std::size_t i = 0; i < opt.cold; ++i) cold[i] = i;

  std::vector<std::string> payloads(opt.cold);
  Schedule schedule(opt);
  bool traced = false;
  out.key("passes");
  out.begin_array();
  for (std::size_t pass = 0; schedule.next(traced); ++pass) {
    teardown();
    setup();
    const std::string trace_file = trace_path(pass);
    const auto c0 = counters();
    double origin = now_s();
    if (traced) origin = trace_begin();
    const double cpu0 = cpu_s();
    const double t0 = now_s();

    std::vector<std::size_t> requests(std::size(kSolvers), 0),
        infeasible_count(requests);
    std::vector<Sample> cold_s(opt.cold), hot_s(opt.hot);
    run_phase(
        conns, problems, cold, 0, origin,
        [&](std::size_t j, const std::string& resp) -> std::string {
          payloads[j] = std::string(report_member(resp));
          const std::string tag = "cold " + std::to_string(j) + ": ";
          if (str_member(resp, "status") != "ok") return tag + resp;
          if (str_member(resp, "cache") != "miss") return tag + "expected a miss";
          return "";
        },
        cold_s, ledger);
    const double cold_wall = now_s() - t0;
    const double t1 = now_s();
    run_phase(
        conns, problems, hot, opt.cold, origin,
        [&](std::size_t j, const std::string& resp) -> std::string {
          std::string report(report_member(resp));
          if (pass == 0 && static_cast<long long>(j) == opt.tamper_hit &&
              !report.empty()) {
            report[report.size() / 2] ^= 0x20;
          }
          const std::string tag = "hot " + std::to_string(j) + ": ";
          if (str_member(resp, "status") != "ok") return tag + resp;
          if (str_member(resp, "cache") != "hit") return tag + "expected a hit";
          if (evals_member(resp) != 0) return tag + "request_evals is not 0";
          if (report != payloads[hot[j]]) return tag + "report differs from its cold miss";
          return "";
        },
        hot_s, ledger);
    const double hot_wall = now_s() - t1;
    const double cpu = cpu_s() - cpu0;
    if (traced) trace_end(trace_file);
    const auto c1 = counters();
    for (std::size_t i = 0; i < opt.cold; ++i) {
      ++requests[problems[i].solver];
      if (infeasible(payloads[i])) ++infeasible_count[problems[i].solver];
    }

    out.begin_object();
    out.kv("traced", traced);
    out.kv("wall_s", cold_wall + hot_wall);
    out.kv("cpu_s", cpu);
    out.kv("ops", opt.cold + opt.hot);
    out.kv("cold_wall_s", cold_wall);
    out.kv("hot_wall_s", hot_wall);
    out.kv("miss_us", latencies_us(cold_s));
    out.kv("hit_us", latencies_us(hot_s));
    if (traced) {
      out.kv("trace", trace_file);
      std::vector<double> send, recv;
      for (const auto& s : hot_s) {
        send.push_back(s.send_us);
        recv.push_back(s.recv_us);
      }
      out.kv("hit_send_us", send);
      out.kv("hit_recv_us", recv);
    }
    emit_counters(out, "counters", counter_delta(c0, c1));
    out.key("infeasible_share");
    out.begin_object();
    for (std::size_t s = 0; s < std::size(kSolvers); ++s) {
      out.kv(kSolvers[s], requests[s] == 0 ? 0.0
                                           : static_cast<double>(infeasible_count[s]) /
                                                 static_cast<double>(requests[s]));
    }
    out.end_object();
    out.end_object();
    std::cerr << "[serve_replay] pass " << pass << (traced ? " (traced)" : "")
              << ": cold " << cold_wall << " s, hot " << hot_wall << " s\n";
  }
  out.end_array();
  teardown();
  out.kv("setup_s", setup_s);
  if (opt.trace) time_layer_calls(problems, payloads, out, ledger);
}

}  // namespace spgbench
