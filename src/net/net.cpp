#include "net/net.hpp"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace spgcmp::net {

namespace {

std::string errno_text(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

sockaddr_un unix_sockaddr(const std::string& path) {
  sockaddr_un sa = {};
  sa.sun_family = AF_UNIX;
  if (path.size() >= sizeof(sa.sun_path)) {
    throw NetError("unix socket path too long (" + std::to_string(path.size()) +
                   " bytes, limit " + std::to_string(sizeof(sa.sun_path) - 1) +
                   "): " + path);
  }
  std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
  return sa;
}

/// getaddrinfo wrapper shared by listen and connect; returns the result
/// list (caller frees with freeaddrinfo).
addrinfo* resolve_tcp(const Address& addr, bool for_listen) {
  addrinfo hints = {};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (for_listen) hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const char* host = addr.host.empty() ? nullptr : addr.host.c_str();
  const std::string port = std::to_string(addr.port);
  if (const int rc = ::getaddrinfo(host, port.c_str(), &hints, &res); rc != 0) {
    throw NetError("cannot resolve " + addr.to_string() + ": " +
                   ::gai_strerror(rc));
  }
  return res;
}

}  // namespace

std::string Address::to_string() const {
  if (kind == Kind::Unix) return path;
  return (host.empty() ? std::string("*") : host) + ":" + std::to_string(port);
}

Address parse_address(const std::string& text) {
  if (text.empty()) throw NetError("empty socket address");
  Address addr;
  const auto colon = text.rfind(':');
  if (text.find('/') != std::string::npos || colon == std::string::npos) {
    addr.kind = Address::Kind::Unix;
    addr.path = text;
    return addr;
  }
  addr.kind = Address::Kind::Tcp;
  addr.host = text.substr(0, colon);
  const std::string port = text.substr(colon + 1);
  if (port.empty() || port.find_first_not_of("0123456789") != std::string::npos) {
    throw NetError("malformed socket address '" + text +
                   "' (expected PATH or HOST:PORT)");
  }
  const unsigned long value = std::stoul(port);
  if (value == 0 || value > 65535) {
    throw NetError("port out of range in socket address '" + text + "'");
  }
  addr.port = static_cast<std::uint16_t>(value);
  return addr;
}

Listener::Listener(const Address& addr, int backlog) : addr_(addr) {
  if (addr.kind == Address::Kind::Unix) {
    // A previous daemon's socket file blocks bind with EADDRINUSE.  Probe
    // it: a live daemon accepts the connect (we refuse to steal the
    // address); a dead one leaves a refusing socket file we can unlink.
    struct stat st = {};
    if (::lstat(addr.path.c_str(), &st) == 0) {
      if (!S_ISSOCK(st.st_mode)) {
        throw NetError(addr.path + " exists and is not a socket; refusing");
      }
      const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (probe >= 0) {
        auto sa = unix_sockaddr(addr.path);
        const int rc = ::connect(probe, reinterpret_cast<sockaddr*>(&sa),
                                 sizeof(sa));
        ::close(probe);
        if (rc == 0) {
          throw NetError(addr.path + ": a daemon is already listening here");
        }
      }
      ::unlink(addr.path.c_str());
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw NetError(errno_text("cannot create unix socket"));
    auto sa = unix_sockaddr(addr.path);
    if (::bind(fd_, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string msg = errno_text("cannot bind " + addr.path);
      ::close(fd_);
      throw NetError(msg);
    }
    unlink_on_close_ = true;
  } else {
    addrinfo* res = resolve_tcp(addr, /*for_listen=*/true);
    std::string last_error = "no usable address";
    for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
      fd_ = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
      if (fd_ < 0) {
        last_error = errno_text("cannot create socket");
        continue;
      }
      const int one = 1;
      ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      if (::bind(fd_, ai->ai_addr, ai->ai_addrlen) == 0) break;
      last_error = errno_text("cannot bind " + addr.to_string());
      ::close(fd_);
      fd_ = -1;
    }
    ::freeaddrinfo(res);
    if (fd_ < 0) throw NetError(last_error);
  }
  if (::listen(fd_, backlog) != 0) {
    const std::string msg = errno_text("cannot listen on " + addr.to_string());
    ::close(fd_);
    if (unlink_on_close_) ::unlink(addr_.path.c_str());
    throw NetError(msg);
  }
  set_cloexec(fd_);
  set_nonblocking(fd_);
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
  if (unlink_on_close_) ::unlink(addr_.path.c_str());
}

int Listener::accept_one() const {
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return -1;
  set_cloexec(fd);
  return fd;
}

int connect_to(const Address& addr) {
  if (addr.kind == Address::Kind::Unix) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw NetError(errno_text("cannot create unix socket"));
    auto sa = unix_sockaddr(addr.path);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      const std::string msg = errno_text("cannot connect to " + addr.path);
      ::close(fd);
      throw NetError(msg);
    }
    set_cloexec(fd);
    return fd;
  }
  addrinfo* res = resolve_tcp(addr, /*for_listen=*/false);
  std::string last_error = "no usable address";
  int fd = -1;
  for (const addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last_error = errno_text("cannot create socket");
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    last_error = errno_text("cannot connect to " + addr.to_string());
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) throw NetError(last_error);
  set_cloexec(fd);
  return fd;
}

}  // namespace spgcmp::net
