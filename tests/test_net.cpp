// Tests for the socket transport: address parsing, concurrent clients
// with per-connection response ordering and a shared cache, oversized and
// torn frames answered in-band with code 2, mid-request disconnects that
// must not wedge the daemon, the connection cap's code-3 refusal, idle
// timeouts, the stats scrape document, a stalled reader that stops being
// read while its answers wait, and the drain-on-stop contract
// (every accepted request answered, connections closed, run() returns
// interrupted).

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "net/net.hpp"
#include "net/socket_server.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spgcmp;
namespace fs = std::filesystem;

/// A generator-form request for a small solvable instance (mirrors
/// test_serve.cpp's shared instance).
std::string gen_request(int id, std::uint64_t seed,
                        const std::string& solver = "greedy") {
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
  w.kv("period", 1.0);
  w.end_object();
  return os.str();
}

/// The raw "report":{...} tail of a response (byte-identity checks).
std::string report_tail(const std::string& line) {
  const auto pos = line.find("\"report\":");
  EXPECT_NE(pos, std::string::npos) << line;
  return pos == std::string::npos ? std::string() : line.substr(pos);
}

/// A serve daemon listening on a fresh Unix socket, its event loop on a
/// background thread.  stop()/summary() end the loop and hand back what
/// it did.
class SocketDaemon {
 public:
  explicit SocketDaemon(net::SocketServerOptions opt = {},
                        std::size_t threads = 2)
      : path_((fs::temp_directory_path() /
               ("spgcmp_net_" + std::to_string(::getpid()) + "_" +
                std::to_string(next_id_++) + ".sock"))
                  .string()),
        pool_(threads),
        engine_(pool_, cache_, nullptr),
        listener_(net::parse_address(path_)),
        sock_(listener_, engine_, opt),
        thread_([this] { summary_ = sock_.run(&stop_); }) {}

  ~SocketDaemon() { (void)finish(); }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] serve::Engine& engine() { return engine_; }

  /// Raise the stop flag, join the loop, return its summary (idempotent).
  net::SocketSummary finish() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return summary_;
  }

 private:
  static std::atomic<int> next_id_;
  std::string path_;
  util::ThreadPool pool_;
  serve::MemoCache cache_{1024};
  serve::Engine engine_;
  net::Listener listener_;
  net::SocketServer sock_;
  std::atomic<bool> stop_{false};
  net::SocketSummary summary_;
  std::thread thread_;
};

std::atomic<int> SocketDaemon::next_id_{0};

/// A blocking client with line framing and a receive timeout (a wedged
/// daemon fails the test instead of hanging it).
class Client {
 public:
  explicit Client(const std::string& path)
      : fd_(net::connect_to(net::parse_address(path))) {
    timeval tv{/*tv_sec=*/30, /*tv_usec=*/0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Client() { close_now(); }

  void send(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n =
          ::send(fd_, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << "send failed: " << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }

  /// Next response line, or nullopt on EOF/timeout.
  std::optional<std::string> recv_line() {
    while (true) {
      const auto nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      char tmp[4096];
      const ssize_t n = ::recv(fd_, tmp, sizeof tmp, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::nullopt;
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  void close_now() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

// -------------------------------------------------------------- parsing --

TEST(NetAddress, ParsesUnixAndTcpSpellings) {
  const auto unix_abs = net::parse_address("/tmp/spgcmp.sock");
  EXPECT_EQ(unix_abs.kind, net::Address::Kind::Unix);
  EXPECT_EQ(unix_abs.path, "/tmp/spgcmp.sock");
  EXPECT_EQ(net::parse_address("serve.sock").kind, net::Address::Kind::Unix);

  const auto tcp = net::parse_address("127.0.0.1:7777");
  EXPECT_EQ(tcp.kind, net::Address::Kind::Tcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 7777);
  const auto any = net::parse_address(":7777");
  EXPECT_EQ(any.kind, net::Address::Kind::Tcp);
  EXPECT_TRUE(any.host.empty());

  EXPECT_THROW((void)net::parse_address(""), net::NetError);
  EXPECT_THROW((void)net::parse_address("host:"), net::NetError);
  EXPECT_THROW((void)net::parse_address("host:0"), net::NetError);
  EXPECT_THROW((void)net::parse_address("host:99999"), net::NetError);
  EXPECT_THROW((void)net::parse_address("host:80x"), net::NetError);
}

// ------------------------------------------------------------- protocol --

TEST(SocketServer, TwoClientsInterleaveInOrderAndShareTheCache) {
  SocketDaemon daemon;
  Client a(daemon.path());
  Client b(daemon.path());

  // Interleaved submissions over two connections; the same two problems
  // from each side, so the second connection's answers are cache hits.
  a.send(gen_request(1, 5) + "\n");
  b.send(gen_request(3, 5) + "\n");
  a.send(gen_request(2, 9) + "\n");
  b.send(gen_request(4, 9) + "\n");

  const auto a1 = a.recv_line(), a2 = a.recv_line();
  const auto b1 = b.recv_line(), b2 = b.recv_line();
  ASSERT_TRUE(a1 && a2 && b1 && b2);

  // Per-connection response order is request order.
  EXPECT_EQ(util::parse_json(*a1).at("id").as_number("id"), 1.0);
  EXPECT_EQ(util::parse_json(*a2).at("id").as_number("id"), 2.0);
  EXPECT_EQ(util::parse_json(*b1).at("id").as_number("id"), 3.0);
  EXPECT_EQ(util::parse_json(*b2).at("id").as_number("id"), 4.0);
  for (const auto* line : {&*a1, &*a2, &*b1, &*b2}) {
    EXPECT_EQ(util::parse_json(*line).at("status").as_string("status"), "ok");
  }

  // One cache across connections: byte-identical report payloads.
  EXPECT_EQ(report_tail(*a1), report_tail(*b1));
  EXPECT_EQ(report_tail(*a2), report_tail(*b2));
  EXPECT_NE(report_tail(*a1), report_tail(*a2));

  a.close_now();
  b.close_now();
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.connections, 2u);
  EXPECT_EQ(summary.serve.accepted, 4u);
  EXPECT_EQ(summary.serve.answered, 4u);
  EXPECT_EQ(summary.serve.ok, 4u);
  EXPECT_GE(summary.serve.hits, 2u);  // b's two answers at minimum
}

TEST(SocketServer, StatsScrapeSharesTheStatsDocumentShape) {
  SocketDaemon daemon;
  Client c(daemon.path());
  c.send(gen_request(1, 5) + "\n" + R"({"id":2,"stats":true})" + "\n");
  const auto solve = c.recv_line();
  const auto stats_line = c.recv_line();
  ASSERT_TRUE(solve && stats_line);

  const auto doc = util::parse_json(*stats_line);
  EXPECT_EQ(doc.at("status").as_string("status"), "ok");
  EXPECT_EQ(doc.at("id").as_number("id"), 2.0);
  // The embedded document is the same shape --stats-out and the client
  // scrape emit: summary / cache / metrics / deltas.
  const auto& body = doc.at("stats");
  EXPECT_GE(body.at("summary").at("ok").as_number("ok"), 1.0);
  EXPECT_EQ(body.at("cache").at("misses").as_number("misses"), 1.0);
  EXPECT_NE(body.at("metrics").find("counters"), nullptr);
  EXPECT_NE(body.at("deltas").find("window_seconds"), nullptr);
}

TEST(SocketServer, OversizedFrameAnsweredCode2AndConnectionResyncs) {
  net::SocketServerOptions opt;
  opt.max_frame_bytes = 256;
  SocketDaemon daemon(opt);
  Client c(daemon.path());

  // A 1 KiB blast with no newline: answered code 2 without waiting for
  // the newline, the over-long frame's remainder discarded.
  c.send(std::string(1024, 'x'));
  const auto err = c.recv_line();
  ASSERT_TRUE(err.has_value());
  const auto doc = util::parse_json(*err);
  EXPECT_EQ(doc.at("status").as_string("status"), "error");
  EXPECT_EQ(doc.at("code").as_number("code"), 2.0);
  EXPECT_NE(doc.at("error").as_string("error").find("exceeds 256 bytes"),
            std::string::npos);

  // The newline ends the oversize frame; the connection resyncs and the
  // next request is served normally.
  c.send("\n" + gen_request(7, 5) + "\n");
  const auto ok = c.recv_line();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(util::parse_json(*ok).at("status").as_string("status"), "ok");
  EXPECT_EQ(util::parse_json(*ok).at("id").as_number("id"), 7.0);
}

TEST(SocketServer, TornFinalFrameAnsweredCode2ThenEof) {
  SocketDaemon daemon;
  Client c(daemon.path());
  // Client dies mid-line: the torn frame is submitted like any other
  // line — malformed JSON, code 2.
  c.send(R"({"solver": "greedy", "per)");
  c.shutdown_write();
  const auto err = c.recv_line();
  ASSERT_TRUE(err.has_value());
  const auto doc = util::parse_json(*err);
  EXPECT_EQ(doc.at("status").as_string("status"), "error");
  EXPECT_EQ(doc.at("code").as_number("code"), 2.0);
  // The drained connection is closed from the server side.
  EXPECT_FALSE(c.recv_line().has_value());
}

TEST(SocketServer, DisconnectMidRequestDoesNotWedgeTheDaemon) {
  SocketDaemon daemon;
  {
    Client gone(daemon.path());
    gone.send(gen_request(1, 11) + "\n");
    gone.close_now();  // vanishes without reading its answer
  }
  // The daemon keeps serving other clients.
  Client c(daemon.path());
  c.send(gen_request(2, 5) + "\n");
  const auto ok = c.recv_line();
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(util::parse_json(*ok).at("status").as_string("status"), "ok");
  c.close_now();
  // And its drain still terminates (no stuck in-flight accounting).
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.connections, 2u);
  EXPECT_EQ(summary.serve.accepted, 2u);
}

TEST(SocketServer, OverCapConnectionRefusedInBandWithCode3) {
  net::SocketServerOptions opt;
  opt.max_connections = 1;
  SocketDaemon daemon(opt);

  Client holder(daemon.path());
  holder.send(R"({"stats":true})" + std::string("\n"));
  ASSERT_TRUE(holder.recv_line().has_value());  // slot provably taken

  Client refused(daemon.path());
  const auto line = refused.recv_line();
  ASSERT_TRUE(line.has_value());
  const auto doc = util::parse_json(*line);
  EXPECT_EQ(doc.at("status").as_string("status"), "error");
  EXPECT_EQ(doc.at("code").as_number("code"), 3.0);
  EXPECT_NE(doc.at("error").as_string("error").find("connection capacity"),
            std::string::npos);
  EXPECT_FALSE(refused.recv_line().has_value());  // closed after the answer

  holder.close_now();
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.connections, 1u);
  EXPECT_EQ(summary.refused_connections, 1u);
}

TEST(SocketServer, IdleConnectionsAreClosedQuietly) {
  net::SocketServerOptions opt;
  opt.idle_timeout_ms = 100;
  opt.poll_interval_ms = 20;
  SocketDaemon daemon(opt);
  Client c(daemon.path());
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(c.recv_line().has_value());  // EOF, not a 30 s timeout
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(10));
  const auto summary = daemon.finish();
  EXPECT_EQ(summary.idle_closed, 1u);
}

TEST(SocketServer, StalledReaderIsNotReadUntilItsAnswersDrain) {
  // A client pipelines 20k cache hits and reads nothing.  Once more than a
  // frame cap of its answers waits in the server's write buffer, the
  // server stops reading it, so the engine accepts only a prefix; the
  // max_inflight gate keeps the loop from reading far ahead of the
  // answers.  When the client reads, the rest flows, in order.
  net::SocketServerOptions opt;
  opt.max_frame_bytes = 16 * 1024;
  opt.max_inflight = 64;
  opt.poll_interval_ms = 20;
  SocketDaemon daemon(opt);
  constexpr int kRequests = 20000;
  Client c(daemon.path());
  std::string text;
  for (int i = 0; i < kRequests; ++i) text += gen_request(i, 5) + "\n";
  std::thread writer([&] { c.send(text); });

  // Stalled: the accepted count stays put for 20 poll intervals.
  std::uint64_t accepted = 0;
  for (int still = 0; still < 20;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(opt.poll_interval_ms));
    const std::uint64_t now = daemon.engine().lifetime().accepted;
    still = now == accepted ? still + 1 : 0;
    accepted = now;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, static_cast<std::uint64_t>(kRequests) / 2);

  for (int i = 0; i < kRequests; ++i) {
    const auto line = c.recv_line();
    ASSERT_TRUE(line.has_value()) << "answer " << i;
    const auto doc = util::parse_json(*line);
    ASSERT_EQ(doc.at("id").as_number("id"), static_cast<double>(i));
    ASSERT_EQ(doc.at("status").as_string("status"), "ok");
  }
  writer.join();
  EXPECT_EQ(daemon.finish().serve.accepted, static_cast<std::uint64_t>(kRequests));
}

TEST(SocketServer, DrainOnStopAnswersAcceptedRequestsThenCloses) {
  SocketDaemon daemon({}, /*threads=*/1);
  Client c(daemon.path());
  c.send(gen_request(1, 5) + "\n" + gen_request(2, 9) + "\n" +
         gen_request(3, 13) + "\n");
  // Give the loop a moment to read the burst, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  const auto summary = daemon.finish();
  EXPECT_TRUE(summary.serve.interrupted);
  // The drain contract: every accepted request was answered (ok from the
  // cache/in-flight solves, or a clean code-3 refusal), never dropped.
  EXPECT_EQ(summary.serve.answered, summary.serve.accepted);

  std::size_t lines = 0;
  while (const auto line = c.recv_line()) {
    ++lines;
    const auto doc = util::parse_json(*line);
    const std::string status = doc.at("status").as_string("status");
    if (status == "error") {
      EXPECT_EQ(doc.at("code").as_number("code"), 3.0);
    } else {
      EXPECT_EQ(status, "ok");
    }
  }
  EXPECT_EQ(lines, summary.serve.answered);  // then EOF: connection closed
}

}  // namespace
