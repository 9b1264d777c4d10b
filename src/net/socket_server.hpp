#pragma once

// The serve daemon's one transport: a poll(2) event loop carrying the
// newline-delimited JSON request protocol over a net::Listener (Unix or
// TCP) and, optionally, one byte stream (stdin, a file or a FIFO) served
// as one more connection.  Every request, whichever way it arrives, goes
// through the same serve::Engine — one cache, one request log, one
// deterministic coalescing order.
//
// One thread runs the loop; solves happen on the engine's pool and
// completions are handed back through a self-pipe wakeup.  Per connection
// the server keeps a read accumulator (partial frames survive short
// reads), a write buffer (short writes survive full kernel buffers), and
// a reorder map so responses leave in that connection's request order.
//
// Protocol edges, all answered in-band:
//   - blank lines are skipped;
//   - a frame longer than max_frame_bytes is answered with a code-2 error
//     and the connection resyncs at the next newline;
//   - a torn final frame (EOF mid-line) is submitted like any other line,
//     so malformed JSON answers code 2;
//   - a connection over the max_connections cap is answered with one
//     code-3 error line and closed;
//   - when the stop flag rises the server stops accepting and reading,
//     queued requests drain through the engine (cache hits answer, fresh
//     solves are refused code 3), write buffers flush, and run() returns
//     with `interrupted` set.
//
// The max_inflight read gate is one budget shared by every connection,
// the stream included.  A connection whose unsent answers exceed
// max_frame_bytes is not read until they drain, so a client that sends
// and never reads stalls itself instead of growing the server's buffer.
// Idle connections (no activity for idle_timeout_ms, nothing in flight)
// are closed quietly, so a forgotten client cannot hold a connection slot
// forever.
//
// The stream differs from a socket in four ways: it is exempt from
// max_connections and the idle timeout; it is read one chunk per poll
// cycle (a regular file never says EAGAIN) and written with write(2);
// its fds are borrowed — never closed, and their file-status flags are
// restored before run() returns, since O_NONBLOCK left on an inherited
// stdin or stdout would leak into the shell sharing that description;
// and its lines are mirrored to the request log only when Stream::log is
// set, so a replay of that log does not append to it again.
//
// Without a listener run() returns once the stream has hit EOF and every
// answer is written (or after a stop drain).  With one, stream EOF leaves
// the sockets serving until the stop flag rises.

#include <atomic>
#include <cstdint>
#include <optional>

#include "net/net.hpp"
#include "serve/engine.hpp"

namespace spgcmp::net {

struct SocketServerOptions {
  std::size_t max_connections = 64;   ///< concurrent clients; 0 = unlimited
  /// Max accepted-but-unanswered requests across all connections before
  /// the server stops reading (0 = unlimited).
  std::size_t max_inflight = 0;
  std::size_t max_frame_bytes = 1 << 20;  ///< request line length cap
  int idle_timeout_ms = 0;            ///< close idle connections; 0 = never
  /// Stop-flag poll cadence: the loop wakes at least this often, so a
  /// signal landing in another thread still drains promptly.
  int poll_interval_ms = 200;
};

/// A byte stream served as one connection: requests are read from
/// `in_fd`, responses written to `out_fd`.  Both fds stay the caller's.
struct Stream {
  int in_fd = -1;
  int out_fd = -1;
  bool log = true;  ///< mirror its request lines to the engine's log
};

struct SocketSummary {
  serve::ServerSummary serve;           ///< responses written, all connections
  std::uint64_t connections = 0;        ///< accepted socket connections
  std::uint64_t refused_connections = 0;  ///< over-cap, answered code 3
  std::uint64_t idle_closed = 0;        ///< closed by the idle timeout
};

class SocketServer {
 public:
  /// Serve `listener`'s connections.
  SocketServer(Listener& listener, serve::Engine& engine,
               SocketServerOptions opt);

  /// Serve `stream` (when set) and `listener`'s connections (when not
  /// null); see the header comment for when run() returns.
  SocketServer(Listener* listener, std::optional<Stream> stream,
               serve::Engine& engine, SocketServerOptions opt);

  /// Run the event loop; see the header comment.  Returns after every
  /// accepted request was answered and every write buffer flushed (or its
  /// connection died).
  SocketSummary run(const std::atomic<bool>* stop);

 private:
  Listener* listener_;
  std::optional<Stream> stream_;
  serve::Engine& engine_;
  SocketServerOptions opt_;
};

}  // namespace spgcmp::net
