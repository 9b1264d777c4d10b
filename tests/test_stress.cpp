// Multi-threaded stress of the whole serving stack, designed to run both
// in the plain suite and under ThreadSanitizer (-DSPGCMP_SANITIZE_THREAD):
// several socket clients, concurrent leased campaign workers (with their
// heartbeat threads) and a stats scraper all hammer one process at once,
// exercising every lock annotated via util/thread_annotations.hpp — the
// engine's submission/coalescing mutexes, the socket loop mutex, the
// memo cache, the lease mutex, and the obs registries.  A second test
// pins the trace-buffer flush (trace_stop racing live emitters) and the
// engine stats-snapshot ordering, the two historical TSan hot spots.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/service.hpp"
#include "net/net.hpp"
#include "net/socket_server.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spgcmp;
namespace fs = std::filesystem;

/// A generator-form request for a small solvable instance (the shared
/// instance family of test_serve.cpp / test_net.cpp).
std::string gen_request(int id, std::uint64_t seed) {
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
  w.kv("solver", "greedy");
  w.kv("period", 1.0);
  w.end_object();
  return os.str();
}

/// A serve daemon on a fresh Unix socket, its poll loop on a background
/// thread (mirrors test_net.cpp's fixture).
class SocketDaemon {
 public:
  explicit SocketDaemon(std::size_t threads = 4)
      : path_((fs::temp_directory_path() /
               ("spgcmp_stress_" + std::to_string(::getpid()) + ".sock"))
                  .string()),
        pool_(threads),
        engine_(pool_, cache_, nullptr),
        listener_(net::parse_address(path_)),
        sock_(listener_, engine_, {}),
        thread_([this] { summary_ = sock_.run(&stop_); }) {}

  ~SocketDaemon() { (void)finish(); }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] serve::Engine& engine() { return engine_; }

  net::SocketSummary finish() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
    return summary_;
  }

 private:
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

/// A blocking line-framed client with a receive timeout, so a wedged
/// daemon fails the test instead of hanging it.
class Client {
 public:
  explicit Client(const std::string& path)
      : fd_(net::connect_to(net::parse_address(path))) {
    timeval tv{/*tv_sec=*/60, /*tv_usec=*/0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool send(const std::string& text) {
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n =
          ::send(fd_, text.data() + off, text.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

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

 private:
  int fd_ = -1;
  std::string buf_;
};

/// The tiny two-sweep campaign of test_campaign.cpp (3 shards, well under
/// a second per pass).
const char* tiny_spec_text() {
  return R"(campaign tiny
topology mesh

[sweep tiny_random]
kind random
n 10
rows 2
cols 2
elevations 1 2
apps 2
seed 7
shard_size 4

[table tiny_failures]
kind random_failures_by_ccr
key ccr
from tiny_random
)";
}

/// Fresh scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("spgcmp_stress_" + tag + "_" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

// One daemon, hammered from three directions at once:
//   * kClients socket clients, each interleaving solve requests (drawn
//     from a handful of distinct problems, so coalescing and the memo
//     cache stay hot) with in-band {"stats":true} control frames;
//   * two leased campaign workers sharing one campaign directory, each
//     with its own heartbeat thread re-stamping lease files;
//   * a scraper thread pulling Engine::stats_document() — the same call
//     the SIGUSR1 stats dump in tools/spgcmp_serve makes — plus registry
//     snapshots.
// Every client must get exactly one well-formed answer per request, and
// the campaign must complete; under TSan this is the whole-stack race
// check.
TEST(Stress, SocketClientsCampaignWorkersAndStatsScrapes) {
  constexpr int kClients = 4;
  constexpr int kRequestsPerClient = 24;
  constexpr int kDistinctProblems = 3;

  SocketDaemon daemon(/*threads=*/4);

  std::atomic<bool> scrape_stop{false};
  std::thread scraper([&] {
    while (!scrape_stop.load(std::memory_order_relaxed)) {
      const std::string doc = daemon.engine().stats_document(-1);
      EXPECT_NE(doc.find("\"summary\""), std::string::npos);
      (void)obs::Registry::instance().snapshot_json(-1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // Two leased workers race over one campaign directory while the socket
  // side is busy; their heartbeat threads stress the lease mutex.
  ScratchDir dir("campaign");
  const auto spec = campaign::CampaignSpec::parse_string(tiny_spec_text());
  std::atomic<std::size_t> executed{0};
  std::vector<std::thread> workers;
  workers.reserve(2);
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      campaign::CampaignService service(spec, dir.str());
      campaign::ServiceOptions opt;
      opt.threads = 1;
      opt.worker = "stress-w" + std::to_string(w);
      opt.lease_ttl = 5.0;
      const auto summary = service.run(opt);
      EXPECT_TRUE(summary.complete);
      executed.fetch_add(summary.shards_executed, std::memory_order_relaxed);
    });
  }

  std::vector<std::thread> clients;
  std::vector<int> answered(kClients, 0);
  std::vector<int> failures(kClients, 0);
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client(daemon.path());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        std::string line;
        if (i % 8 == 7) {
          line = R"({"stats":true,"id":)" +
                 std::to_string(c * kRequestsPerClient + i) + "}";
        } else {
          line = gen_request(c * kRequestsPerClient + i,
                             static_cast<std::uint64_t>(i % kDistinctProblems));
        }
        if (!client.send(line + "\n")) {
          ++failures[c];
          return;
        }
        // Ping-pong per request keeps each client's recv interleaved with
        // the other clients' sends — maximum cross-connection overlap.
        const auto resp = client.recv_line();
        if (!resp.has_value()) {
          ++failures[c];
          return;
        }
        EXPECT_NE(resp->find("\"status\": \"ok\""), std::string::npos) << *resp;
        ++answered[c];
      }
    });
  }

  for (auto& t : clients) t.join();
  for (auto& t : workers) t.join();
  scrape_stop.store(true, std::memory_order_relaxed);
  scraper.join();

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[c], 0) << "client " << c << " lost its connection";
    EXPECT_EQ(answered[c], kRequestsPerClient);
  }
  // Every shard ran at least once across the two workers.  Exactly-once
  // is deliberately NOT guaranteed: a worker that reloads the done-set
  // just before another persists a shard re-executes it, and keep-first
  // log dedup makes the duplicate harmless (campaign/lease.hpp).
  EXPECT_GE(executed.load(), 3u);
  // The reopened directory is the ground truth: complete, nothing pending.
  auto reopened = campaign::CampaignService::open(dir.str());
  campaign::ServiceOptions verify;
  verify.threads = 1;
  const auto final_summary = reopened.run(verify);
  EXPECT_TRUE(final_summary.complete);
  EXPECT_EQ(final_summary.shards_total, 3u);
  EXPECT_EQ(final_summary.shards_executed, 0u);  // all persisted already

  const auto summary = daemon.finish();
  EXPECT_EQ(summary.serve.accepted, summary.serve.answered);
  EXPECT_EQ(summary.serve.accepted,
            static_cast<std::uint64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(summary.serve.errors, 0u);
  EXPECT_EQ(summary.connections, static_cast<std::uint64_t>(kClients));
}

// Regression pin for the two historical TSan hot spots:
//   * trace-buffer flush: trace_stop() drains per-thread buffers while
//     other threads are still constructing Spans — every event must be
//     either fully in one snapshot or invisible, never torn;
//   * stats-snapshot ordering: Engine::stats_document() reads lifetime
//     counters while workers bump them.
// Run a start/emit/stop cycle with live emitters several times; under
// TSan any unsynchronized buffer access fails the suite.
TEST(Stress, TraceFlushRacingLiveSpansStaysClean) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> emitters;
  emitters.reserve(4);
  for (int t = 0; t < 4; ++t) {
    emitters.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const obs::Span span("stress.emit");
        obs::trace_instant("stress.tick");
      }
    });
  }

  for (int cycle = 0; cycle < 5; ++cycle) {
    obs::trace_start();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::ostringstream os;
    const std::size_t n = obs::trace_stop(os);
    // The document must parse whole even though emitters kept running
    // right through the flush.
    EXPECT_NO_THROW((void)util::parse_json(os.str())) << "cycle " << cycle;
    EXPECT_GT(n, 0u) << "cycle " << cycle;
  }

  stop.store(true, std::memory_order_relaxed);
  for (auto& t : emitters) t.join();
}

}  // namespace
