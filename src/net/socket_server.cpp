#include "net/socket_server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "util/thread_annotations.hpp"

namespace spgcmp::net {

namespace {

using Clock = std::chrono::steady_clock;

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Requests handed to the engine and not yet completed, all connections.
obs::Gauge& inflight_gauge() {
  static auto& g = obs::Registry::instance().gauge("serve.inflight");
  return g;
}

int ms_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(to - from).count());
}

/// Puts the stream's borrowed fds into nonblocking mode for one run() and
/// restores the file-status flags it found.  Both are saved before either
/// is changed, so two fds sharing one open file description (a terminal
/// on stdin and stdout) both restore to the original.
class BorrowedFds {
 public:
  explicit BorrowedFds(const std::optional<Stream>& stream) {
    if (!stream) return;
    saved_[0] = {stream->in_fd, ::fcntl(stream->in_fd, F_GETFL, 0)};
    saved_[1] = {stream->out_fd, ::fcntl(stream->out_fd, F_GETFL, 0)};
    for (const auto& [fd, flags] : saved_) {
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    }
  }
  ~BorrowedFds() {
    for (const auto& [fd, flags] : saved_) {
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags);
    }
  }
  BorrowedFds(const BorrowedFds&) = delete;
  BorrowedFds& operator=(const BorrowedFds&) = delete;

 private:
  std::pair<int, int> saved_[2] = {{-1, -1}, {-1, -1}};  ///< (fd, flags)
};

/// One connection: an accepted socket, or the stream.  Owned by the loop
/// thread; `ready`, `wbuf` and `inflight` are also touched by engine
/// completion callbacks, always under Loop::mutex.
struct Conn {
  int fd = -1;      ///< read side: the socket, or the stream's input
  int out_fd = -1;  ///< write side: the socket again, or the stream's output
  bool stream = false;  ///< the borrowed stream, not an accepted socket
  bool log = true;      ///< mirror request lines to the engine's log
  std::string rbuf;   ///< partial-frame accumulator
  std::string wbuf;   ///< bytes waiting for the fd to accept them
  std::uint64_t next_submit = 0;  ///< per-connection request sequence
  std::uint64_t next_emit = 0;    ///< next sequence to append to wbuf
  std::map<std::uint64_t, serve::Engine::Result> ready;  ///< out-of-order done
  std::size_t inflight = 0;  ///< submitted, not yet moved into wbuf
  Clock::time_point last_activity;
  bool read_closed = false;  ///< EOF seen (or reading abandoned at drain)
  bool discarding = false;   ///< oversize frame: skip until next newline
};

/// Everything shared between the poll-loop thread and engine completion
/// callbacks on pool workers, under one server-wide mutex.
struct Loop {
  Loop(serve::Engine& eng, const SocketServerOptions& o,
       const std::atomic<bool>* st, int wfd)
      : engine(eng), opt(o), stop(st), wake_fd(wfd) {}

  serve::Engine& engine;
  const SocketServerOptions& opt;
  const std::atomic<bool>* stop;
  const int wake_fd;  ///< write end of the self-pipe (immutable)

  util::Mutex mutex;
  std::map<std::uint64_t, std::unique_ptr<Conn>> conns SPGCMP_GUARDED_BY(mutex);
  std::uint64_t next_conn_id SPGCMP_GUARDED_BY(mutex) = 0;
  /// Open socket connections: what max_connections caps (not the stream).
  std::size_t sockets SPGCMP_GUARDED_BY(mutex) = 0;
  /// Requests handed to the engine whose completion callback has not
  /// fired yet.  Callbacks reference this struct, so run() only returns
  /// once this reaches zero — even for requests whose connection died.
  std::size_t engine_inflight SPGCMP_GUARDED_BY(mutex) = 0;
  SocketSummary summary SPGCMP_GUARDED_BY(mutex);

  /// Wake the poll loop to flush freshly completed responses.
  void wake() const {
    const char b = 0;
    // A full pipe already guarantees a pending wakeup.
    [[maybe_unused]] const ssize_t rc = ::write(wake_fd, &b, 1);
  }

  /// Move in-order completed responses into the connection's write buffer.
  void drain_ready(Conn& c) SPGCMP_REQUIRES(mutex) {
    while (true) {
      const auto it = c.ready.find(c.next_emit);
      if (it == c.ready.end()) break;
      c.wbuf += it->second.line;
      c.wbuf += '\n';
      serve::count_response(it->second.kind, summary.serve);
      c.ready.erase(it);
      ++c.next_emit;
      --c.inflight;
    }
  }

  /// Submit one framed line to the engine.
  void submit_line(std::uint64_t conn_id, Conn& c, const std::string& line)
      SPGCMP_REQUIRES(mutex) {
    const std::uint64_t s = c.next_submit++;
    ++c.inflight;
    ++engine_inflight;
    inflight_gauge().add(1);
    ++summary.serve.accepted;
    engine.submit(line, c.log, stop,
                  [this, conn_id, s](serve::Engine::Result result) {
                    const util::MutexLock lk(mutex);
                    --engine_inflight;
                    inflight_gauge().add(-1);
                    const auto it = conns.find(conn_id);
                    if (it != conns.end()) {
                      // A vanished client's answer has no destination.
                      it->second->ready.emplace(s, std::move(result));
                      drain_ready(*it->second);
                    }
                    // Still under the lock: once engine_inflight can read
                    // zero, run() may return and close the self-pipe.
                    wake();
                  });
  }

  /// Answer a transport-level error (oversize frame) in order without
  /// touching the engine: it occupies a sequence slot like any request.
  void submit_error(Conn& c, std::string line) SPGCMP_REQUIRES(mutex) {
    const std::uint64_t s = c.next_submit++;
    ++c.inflight;
    c.ready.emplace(s, serve::Engine::Result{std::move(line),
                                             serve::ResponseKind::Error});
    drain_ready(c);
  }

  [[nodiscard]] bool oversize(std::size_t bytes) const {
    return opt.max_frame_bytes != 0 && bytes > opt.max_frame_bytes;
  }

  void submit_oversize(Conn& c) SPGCMP_REQUIRES(mutex) {
    submit_error(c, serve::render_error(
                        "null", 2,
                        "request line exceeds " +
                            std::to_string(opt.max_frame_bytes) + " bytes"));
  }

  /// Frame and submit everything complete in the read accumulator; blank
  /// lines are skipped, and a line over the cap is answered code 2 whether
  /// it arrived in one chunk or many.  `final_flush` also submits a torn
  /// trailing frame (EOF mid-line).
  void process_rbuf(std::uint64_t conn_id, Conn& c, bool final_flush)
      SPGCMP_REQUIRES(mutex) {
    std::size_t start = 0;
    while (true) {
      const auto nl = c.rbuf.find('\n', start);
      if (nl == std::string::npos) break;
      if (c.discarding) {
        c.discarding = false;  // oversize frame ends here; resync
      } else if (oversize(nl - start)) {
        submit_oversize(c);
      } else if (nl > start) {
        submit_line(conn_id, c, c.rbuf.substr(start, nl - start));
      }
      start = nl + 1;
    }
    c.rbuf.erase(0, start);
    if (!c.discarding && oversize(c.rbuf.size())) {
      // No newline yet: answer now and skip the rest of the frame.
      submit_oversize(c);
      c.rbuf.clear();
      c.discarding = true;
    }
    if (final_flush && !c.rbuf.empty()) {
      if (!c.discarding) submit_line(conn_id, c, c.rbuf);
      c.rbuf.clear();
      c.discarding = false;
    }
  }
};

}  // namespace

SocketServer::SocketServer(Listener& listener, serve::Engine& engine,
                           SocketServerOptions opt)
    : SocketServer(&listener, std::nullopt, engine, opt) {}

SocketServer::SocketServer(Listener* listener, std::optional<Stream> stream,
                           serve::Engine& engine, SocketServerOptions opt)
    : listener_(listener), stream_(stream), engine_(engine), opt_(opt) {}

SocketSummary SocketServer::run(const std::atomic<bool>* stop) {
  static auto& m_conns = obs::Registry::instance().counter("net.connections");
  static auto& m_refused =
      obs::Registry::instance().counter("net.refused_connections");
  static auto& m_idle = obs::Registry::instance().counter("net.idle_closed");
  static auto& g_open = obs::Registry::instance().gauge("net.open_connections");

  // Self-pipe: engine completions run on pool workers; a byte here wakes
  // the poll loop to flush freshly completed responses.
  int wake[2] = {-1, -1};
  if (::pipe(wake) != 0) throw NetError("cannot create self-pipe");
  set_nonblocking(wake[0]);
  set_nonblocking(wake[1]);

  const BorrowedFds borrowed(stream_);
  Loop loop{engine_, opt_, stop, wake[1]};
  if (stream_) {
    auto conn = std::make_unique<Conn>();
    conn->fd = stream_->in_fd;
    conn->out_fd = stream_->out_fd;
    conn->stream = true;
    conn->log = stream_->log;
    const util::MutexLock lk(loop.mutex);
    loop.conns.emplace(++loop.next_conn_id, std::move(conn));
  }
  const bool listening = listener_ != nullptr;
  bool draining = false;

  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per pollfd entry (0 = none)
  std::vector<std::uint64_t> dead;
  char buf[1 << 16];

  while (true) {
    const bool stopping =
        stop != nullptr && stop->load(std::memory_order_relaxed);
    if (stopping && !draining) {
      draining = true;
      // Reading stops here: partial frames are abandoned.  In-flight
      // requests drain through the engine (code-3 refusals for fresh
      // solves).
      const util::MutexLock lk(loop.mutex);
      for (auto& [id, c] : loop.conns) {
        c->read_closed = true;
        c->rbuf.clear();
      }
    }

    // Build the poll set and find the nearest idle deadline.
    const bool accepting = listening && !draining;
    fds.clear();
    fd_conn.clear();
    fds.push_back({wake[0], POLLIN, 0});
    fd_conn.push_back(0);
    if (accepting) {
      fds.push_back({listener_->fd(), POLLIN, 0});
      fd_conn.push_back(0);
    }
    const std::size_t first_conn = fds.size();
    int timeout = opt_.poll_interval_ms;
    bool all_drained;
    {
      const util::MutexLock lk(loop.mutex);
      all_drained = loop.engine_inflight == 0;
      const bool gate_reads =
          opt_.max_inflight != 0 && loop.engine_inflight >= opt_.max_inflight;
      const auto now = Clock::now();
      for (auto& [id, c] : loop.conns) {
        // A reader that stops reading its answers stops being read: past
        // one frame cap of unsent output it gets no new requests in.
        const bool backlogged =
            opt_.max_frame_bytes != 0 && c->wbuf.size() > opt_.max_frame_bytes;
        const bool want_read = !c->read_closed && !gate_reads && !backlogged;
        const bool want_write = !c->wbuf.empty();
        if (!c->read_closed || want_write || c->inflight != 0) {
          all_drained = false;
        }
        if (c->stream) {
          // Two adjacent entries, and a side it does not want is not
          // polled at all: a FIFO whose writer left reports POLLHUP
          // whatever the events ask for.
          fds.push_back({want_read ? c->fd : -1, POLLIN, 0});
          fds.push_back({want_write ? c->out_fd : -1, POLLOUT, 0});
          fd_conn.push_back(id);
          fd_conn.push_back(id);
          continue;
        }
        if (opt_.idle_timeout_ms > 0 && !c->read_closed) {
          const int left =
              opt_.idle_timeout_ms - ms_between(c->last_activity, now);
          timeout = std::min(timeout, std::max(left, 0));
        }
        const short events = static_cast<short>((want_read ? POLLIN : 0) |
                                                (want_write ? POLLOUT : 0));
        fds.push_back({c->fd, events, 0});
        fd_conn.push_back(id);
      }
    }
    // Without a listener, the stream's end is the server's end.
    if ((draining || !listening) && all_drained) break;

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), timeout);
    if (rc < 0 && errno != EINTR) {
      throw NetError(std::string("poll failed: ") + std::strerror(errno));
    }

    // Drain the wakeup pipe.
    if (rc > 0 && (fds[0].revents & POLLIN) != 0) {
      while (::read(wake[0], buf, sizeof buf) > 0) {
      }
    }

    // Accept new connections (fds[1] is the listener while accepting).
    if (accepting && rc > 0 && (fds[1].revents & POLLIN) != 0) {
      while (true) {
        const int cfd = listener_->accept_one();
        if (cfd < 0) break;
        bool refused = false;
        {
          const util::MutexLock lk(loop.mutex);
          if (opt_.max_connections != 0 &&
              loop.sockets >= opt_.max_connections) {
            ++loop.summary.refused_connections;
            refused = true;
          } else {
            set_nonblocking(cfd);
            auto conn = std::make_unique<Conn>();
            conn->fd = cfd;
            conn->out_fd = cfd;
            conn->last_activity = Clock::now();
            loop.conns.emplace(++loop.next_conn_id, std::move(conn));
            ++loop.sockets;
            ++loop.summary.connections;
          }
        }
        if (refused) {
          // In-band refusal: the same code-3 class as the drain refusal,
          // so clients can tell "busy" from a protocol mistake.
          const std::string line =
              serve::render_error("null", 3,
                                  "server at connection capacity (" +
                                      std::to_string(opt_.max_connections) +
                                      "); retry later") +
              "\n";
          [[maybe_unused]] const ssize_t wr =
              ::send(cfd, line.data(), line.size(), MSG_NOSIGNAL);
          ::close(cfd);
          m_refused.inc();
          continue;
        }
        m_conns.inc();
        g_open.add(1);
      }
    }

    // Per-connection I/O.
    dead.clear();
    {
      const util::MutexLock lk(loop.mutex);
      for (std::size_t i = first_conn; i < fds.size(); ++i) {
        const auto it = loop.conns.find(fd_conn[i]);
        if (it == loop.conns.end()) continue;
        Conn& c = *it->second;
        const bool readable = (fds[i].events & POLLIN) != 0 &&
                              (fds[i].revents & (POLLIN | POLLHUP)) != 0;
        short revents = fds[i].revents;
        if (c.stream) revents |= fds[++i].revents;  // its output entry
        bool kill = false;

        if (readable) {
          // One chunk a cycle: a regular file never says EAGAIN, nor does
          // a socket whose writer outruns the loop, and the read gates
          // must get their say between chunks.
          ssize_t n = 0;
          do {
            n = ::read(c.fd, buf, sizeof buf);
          } while (n < 0 && errno == EINTR);
          if (n > 0) {
            c.rbuf.append(buf, static_cast<std::size_t>(n));
            c.last_activity = Clock::now();
            // Frame per chunk so an endless unterminated blast hits the
            // oversize answer instead of growing the accumulator.
            loop.process_rbuf(it->first, c, /*final_flush=*/false);
          } else if (n == 0 ||
                     (c.stream && errno != EAGAIN && errno != EWOULDBLOCK)) {
            // A stream's read error ends its input like EOF would: poll
            // reports a broken fd readable forever.
            c.read_closed = true;
            loop.process_rbuf(it->first, c, /*final_flush=*/true);
          }
          // Otherwise EAGAIN, or a hard socket error poll surfaces later.
        }

        if (!c.wbuf.empty()) {
          // Opportunistic flush: completions may have filled wbuf after
          // this cycle's poll set was armed.
          while (!c.wbuf.empty()) {
            const ssize_t n =
                c.stream ? ::write(c.out_fd, c.wbuf.data(), c.wbuf.size())
                         : ::send(c.out_fd, c.wbuf.data(), c.wbuf.size(),
                                  MSG_NOSIGNAL);
            if (n > 0) {
              c.wbuf.erase(0, static_cast<std::size_t>(n));
              c.last_activity = Clock::now();
              continue;
            }
            if (n < 0 && errno == EINTR) continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
            // Broken pipe: the reader went away without its answers.
            // Drop the connection; still-solving requests find it gone
            // and are discarded.
            kill = true;
            break;
          }
        }

        if ((revents & (POLLERR | POLLNVAL)) != 0) kill = true;

        const bool drained =
            c.read_closed && c.wbuf.empty() && c.inflight == 0;
        if (!kill && !drained && !c.stream && opt_.idle_timeout_ms > 0 &&
            !c.read_closed && c.inflight == 0 && c.wbuf.empty() &&
            ms_between(c.last_activity, Clock::now()) >= opt_.idle_timeout_ms) {
          ++loop.summary.idle_closed;
          m_idle.inc();
          kill = true;
        }
        if (kill || drained) dead.push_back(it->first);
      }
      for (const std::uint64_t id : dead) {
        const auto it = loop.conns.find(id);
        if (!it->second->stream) {  // the stream's fds are borrowed
          ::close(it->second->fd);
          --loop.sockets;
          g_open.add(-1);
        }
        loop.conns.erase(it);
      }
    }
  }

  SocketSummary summary;
  {
    const util::MutexLock lk(loop.mutex);
    for (auto& [id, c] : loop.conns) {
      if (c->stream) continue;
      ::close(c->fd);
      g_open.add(-1);
    }
    loop.conns.clear();
    summary = loop.summary;
  }
  ::close(wake[0]);
  ::close(wake[1]);

  summary.serve.interrupted =
      stop != nullptr && stop->load(std::memory_order_relaxed);
  summary.serve.cache = engine_.cache().stats();
  return summary;
}

}  // namespace spgcmp::net
