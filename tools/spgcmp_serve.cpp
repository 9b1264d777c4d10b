// spgcmp_serve — memoizing mapping-as-a-service daemon.
//
//   spgcmp_serve [--in=PATH] [--listen=ADDR] [--threads=N] [--cache=N]
//                [--max-inflight=N] [--log=FILE] [--replay=FILE]
//                [--max-conns=N] [--idle-timeout-ms=N] [--max-frame-bytes=N]
//                [--list-solvers] [--trace=FILE] [--metrics=FILE]
//                [--stats-out=FILE]
//
// Reads newline-delimited JSON solve requests (see src/serve/protocol.hpp
// for the schema) from --in (a file or FIFO) or stdin, and writes one JSON
// response per request to stdout, in request order.  Solves are batched
// onto a thread pool and memoized by canonical problem key: a repeated or
// re-seeded-identical request answers with "cache": "hit", zero evaluator
// calls, and a report payload byte-identical to the cold solve.
//
// --listen=ADDR additionally serves the same protocol over a socket — a
// Unix-domain path (contains '/' or no ':') or HOST:PORT TCP endpoint.
// Every mode runs one net::SocketServer loop: the --in stream (or stdin)
// is one more connection beside the sockets, so all of them share one
// cache, request log, coalescing order and --max-inflight budget, and a
// hit is byte-identical whichever way the request came.  Per connection,
// responses leave in that connection's request order.  --listen may
// coexist with --in: the sockets are served before a FIFO's first writer,
// and after the stream's EOF until SIGINT/SIGTERM; with --listen alone
// stdin is left untouched.  --max-conns caps concurrent socket
// connections (excess ones are answered with one code-3 error line and
// closed), --idle-timeout-ms closes idle socket connections, and
// --max-frame-bytes bounds a request line on every connection, the stream
// included (oversized frames answer code 2 and the connection resyncs at
// the next newline).
//
// --log=FILE appends every accepted request line verbatim to an
// append-only JSONL log; --replay=FILE feeds such a log through the same
// loop before serving (answers discarded, lines not logged again),
// rebuilding the memo cache after a restart.  With --replay and neither
// --in nor --listen the daemon exits after the replay.
//
// SIGINT/SIGTERM stop reading and drain: running solves finish
// and answer normally, queued requests answer from the cache when
// possible and are otherwise refused with a code-3 error.  Exit codes:
// 0 = EOF reached, 3 = stopped by a signal (after the drain), 2 = usage
// or configuration error, 1 = internal error.  Per-request failures are
// answered in-band and do not affect the exit code.
//
// Observability: --trace=FILE records a Chrome trace-event timeline,
// --metrics=FILE writes the metrics-registry snapshot at exit, and
// --stats-out=FILE atomically (tmp+fsync+rename) writes a final
// summary/cache/metrics document on both the clean-EOF and signal-drain
// exits.  A live snapshot is available in-band via a `{"stats":true}`
// request line, and SIGUSR1 dumps the metrics snapshot to stderr without
// disturbing the daemon.

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <future>
#include <optional>
#include <stdexcept>

#include "net/net.hpp"
#include "net/socket_server.hpp"
#include "obs/obs.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/jsonl.hpp"
#include "util/stop_signal.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spgcmp;

/// SIGUSR1 requests a live metrics dump to stderr, written by the main
/// thread's 100 ms check while the serve loop runs.
std::atomic<bool> g_usr1{false};

void on_usr1(int) { g_usr1.store(true, std::memory_order_relaxed); }

void install_usr1_handler() {
  struct sigaction sa = {};
  sa.sa_handler = on_usr1;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGUSR1, &sa, nullptr);
}

void maybe_dump_metrics() {
  if (!g_usr1.exchange(false, std::memory_order_relaxed)) return;
  std::fputs((obs::Registry::instance().snapshot_json(-1) + "\n").c_str(),
             stderr);
}

/// An fd opened for the duration of serve_main.
class OwnedFd {
 public:
  OwnedFd(const std::string& path, int flags, const char* what)
      : fd_(::open(path.c_str(), flags | O_CLOEXEC)) {
    if (fd_ < 0) {
      throw std::runtime_error(std::string("cannot open ") + what + " " + path +
                               ": " + std::strerror(errno));
    }
  }
  ~OwnedFd() { ::close(fd_); }
  OwnedFd(const OwnedFd&) = delete;
  OwnedFd& operator=(const OwnedFd&) = delete;
  [[nodiscard]] int get() const noexcept { return fd_; }

 private:
  int fd_;
};

void print_summary(const char* what, const serve::ServerSummary& s) {
  std::fprintf(stderr,
               "[serve] %s: %llu accepted, %llu answered (%llu ok, %llu from "
               "cache, %llu errors, %llu refused); cache %llu/%llu hit/miss, "
               "%llu evicted, %zu/%zu entries\n",
               what, static_cast<unsigned long long>(s.accepted),
               static_cast<unsigned long long>(s.answered),
               static_cast<unsigned long long>(s.ok),
               static_cast<unsigned long long>(s.hits),
               static_cast<unsigned long long>(s.errors),
               static_cast<unsigned long long>(s.shutdown_refused),
               static_cast<unsigned long long>(s.cache.hits),
               static_cast<unsigned long long>(s.cache.misses),
               static_cast<unsigned long long>(s.cache.evictions),
               s.cache.size, s.cache.capacity);
}

int serve_main(const util::Args& args) {
  const auto obs_files = obs::ScopedFiles::from_args(args);
  serve::MemoCache cache(
      static_cast<std::size_t>(args.get_int("cache", "", 1024)));
  util::ThreadPool pool(
      static_cast<std::size_t>(args.get_int("threads", "REPRO_THREADS", 0)));
  const std::string log_path = args.get_string("log", "", "");
  std::optional<util::JsonlWriter> log;
  if (!log_path.empty()) log.emplace(log_path);
  serve::Engine engine(pool, cache, log ? &*log : nullptr);

  net::SocketServerOptions sopt;
  sopt.max_connections =
      static_cast<std::size_t>(args.get_int("max-conns", "", 64));
  sopt.max_inflight =
      static_cast<std::size_t>(args.get_int("max-inflight", "", 0));
  if (sopt.max_inflight == 0) sopt.max_inflight = 4 * pool.thread_count();
  sopt.max_frame_bytes =
      static_cast<std::size_t>(args.get_int("max-frame-bytes", "", 1 << 20));
  sopt.idle_timeout_ms =
      static_cast<int>(args.get_int("idle-timeout-ms", "", 0));

  util::install_stop_handlers();
  install_usr1_handler();
  const std::atomic<bool>& stop = util::stop_flag();

  // Final summary/cache/metrics/deltas snapshot, installed durably at
  // exit on both the clean-EOF and the signal-drain paths.  Same document
  // shape as the in-band {"stats":true} answer and the
  // spgcmp_serve_client --stats scrape.
  const std::string stats_out = args.get_string("stats-out", "", "");
  const auto write_stats = [&](const serve::ServerSummary& s) {
    if (stats_out.empty()) return;
    obs::write_text_file_durable(
        stats_out,
        serve::render_stats_document(s, obs::Registry::instance().snapshot_json(-1),
                                     engine.deltas().sample(), -1) +
            "\n");
  };

  const std::string replay = args.get_string("replay", "", "");
  if (!replay.empty()) {
    // The log goes through the same loop as live requests, answers
    // discarded and lines not logged again.
    const OwnedFd in(replay, O_RDONLY, "request log");
    const OwnedFd null_out("/dev/null", O_WRONLY, "output");
    net::SocketServer replayer(
        nullptr, net::Stream{in.get(), null_out.get(), /*log=*/false}, engine,
        sopt);
    print_summary("replayed", replayer.run(nullptr).serve);
  }

  const std::string listen = args.get_string("listen", "", "");
  const std::string in_path = args.get_string("in", "", "");
  if (listen.empty() && in_path.empty() && !replay.empty()) {
    write_stats(serve::ServerSummary{});  // replay-only run
    return 0;
  }

  std::optional<net::Listener> listener;
  if (!listen.empty()) {
    listener.emplace(net::parse_address(listen));
    std::fprintf(stderr, "[serve] listening on %s\n",
                 listener->address().to_string().c_str());
  }
  // A FIFO opened nonblocking returns at once; poll reports it only once a
  // writer writes, so the sockets are served before its first writer.
  std::optional<OwnedFd> in;
  if (!in_path.empty()) {
    in.emplace(in_path, O_RDONLY | O_NONBLOCK, "request input");
  }
  std::optional<net::Stream> stream;
  if (in) {
    stream = net::Stream{in->get(), STDOUT_FILENO};
  } else if (!listener) {
    stream = net::Stream{STDIN_FILENO, STDOUT_FILENO};
  }
  net::SocketServer server(listener ? &*listener : nullptr, stream, engine,
                           sopt);

  // The loop runs on its own thread; this one answers SIGUSR1.
  auto loop = std::async(std::launch::async, [&] { return server.run(&stop); });
  while (loop.wait_for(std::chrono::milliseconds(100)) !=
         std::future_status::ready) {
    maybe_dump_metrics();
  }
  const net::SocketSummary summary = loop.get();
  if (listener) {
    std::fprintf(stderr,
                 "[serve] socket: %llu connections (%llu refused, %llu "
                 "idle-closed)\n",
                 static_cast<unsigned long long>(summary.connections),
                 static_cast<unsigned long long>(summary.refused_connections),
                 static_cast<unsigned long long>(summary.idle_closed));
  }
  print_summary("served", summary.serve);
  write_stats(summary.serve);
  return summary.serve.interrupted ? 3 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: spgcmp_serve [--in=PATH] [--listen=ADDR] [--threads=N]\n"
               "                    [--cache=N] [--max-inflight=N] [--log=FILE]\n"
               "                    [--replay=FILE] [--max-conns=N]\n"
               "                    [--idle-timeout-ms=N] [--max-frame-bytes=N]\n"
               "                    [--trace=FILE] [--metrics=FILE] [--stats-out=FILE]\n"
               "  --listen serves the protocol over a Unix socket PATH or a\n"
               "  HOST:PORT TCP endpoint (may coexist with --in)\n"
               "  --list-solvers lists the solver registry\n"
               "  --trace/--metrics record a Chrome trace / metrics snapshot;\n"
               "  --stats-out writes a final summary+cache+metrics+deltas document;\n"
               "  a {\"stats\":true} request answers live stats in-band and\n"
               "  SIGUSR1 dumps the metrics snapshot to stderr\n"
               "see the header of tools/spgcmp_serve.cpp for the protocol\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_tool("spgcmp_serve", [&]() -> int {
    const util::Args args(argc, argv,
                          {"in", "listen", "threads", "cache", "max-inflight", "log",
                           "replay", "max-conns", "idle-timeout-ms", "max-frame-bytes",
                           "stats-out", "help", "heuristics", "list-solvers", "trace",
                           "metrics"});
    if (args.has("help")) return usage();
    if (tools::handle_list_solvers(args)) return 0;
    try {
      return serve_main(args);
    } catch (const net::NetError& e) {
      // Bad --listen address or an unbindable endpoint is a configuration
      // mistake, same exit class as a bad solver spec.
      std::fprintf(stderr, "spgcmp_serve: %s\n", e.what());
      return 2;
    }
  });
}
