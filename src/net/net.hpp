#pragma once

// Dependency-free POSIX socket plumbing for the serve daemon's network
// transport: address parsing, listening sockets and blocking client
// connections.
//
// Address grammar (the --listen= / --connect= value):
//
//   PATH         a Unix-domain socket — anything containing '/' or not
//                containing ':' (e.g. /tmp/spgcmp.sock, serve.sock)
//   HOST:PORT    a TCP endpoint (e.g. 127.0.0.1:7777, localhost:7777,
//                :7777 = all interfaces); resolved with getaddrinfo
//
// Listeners bind/listen immediately on construction and unlink a stale
// Unix socket file left by a previous daemon (after probing that no live
// daemon still answers on it).  All fds are close-on-exec and the
// listener fd is nonblocking; accepted connections are returned blocking
// (the socket server switches them to nonblocking itself).

#include <cstdint>
#include <stdexcept>
#include <string>

namespace spgcmp::net {

/// Malformed address string or socket-layer failure (bind, listen,
/// connect, resolve).  The daemon maps these to its usage exit code.
class NetError : public std::runtime_error {
 public:
  explicit NetError(const std::string& what) : std::runtime_error(what) {}
};

struct Address {
  enum class Kind { Unix, Tcp };
  Kind kind = Kind::Unix;
  std::string path;  ///< Unix socket path (Kind::Unix)
  std::string host;  ///< TCP host, may be empty = all interfaces (Kind::Tcp)
  std::uint16_t port = 0;

  /// Human-readable round trip for logs and errors.
  [[nodiscard]] std::string to_string() const;
};

/// Parse the --listen/--connect grammar above; throws NetError.
[[nodiscard]] Address parse_address(const std::string& text);

/// A bound, listening socket.  Closes (and unlinks its Unix socket file)
/// on destruction.
class Listener {
 public:
  explicit Listener(const Address& addr, int backlog = 64);
  ~Listener();

  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }
  [[nodiscard]] const Address& address() const noexcept { return addr_; }

  /// Accept one pending connection; returns -1 when none is pending
  /// (EAGAIN) or the accept failed transiently.  The returned fd is
  /// blocking and close-on-exec.
  [[nodiscard]] int accept_one() const;

 private:
  Address addr_;
  int fd_ = -1;
  bool unlink_on_close_ = false;
};

/// Connect to a serve daemon (blocking); throws NetError on failure.
/// The returned fd is blocking and close-on-exec; callers own it.
[[nodiscard]] int connect_to(const Address& addr);

}  // namespace spgcmp::net
