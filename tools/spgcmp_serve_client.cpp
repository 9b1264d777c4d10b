// spgcmp_serve_client — drive or scrape a listening spgcmp_serve daemon.
//
//   spgcmp_serve_client --connect=ADDR [--stats] [--in=FILE]
//
// ADDR uses the daemon's --listen grammar: a Unix-domain socket path
// (contains '/' or no ':') or a HOST:PORT TCP endpoint.
//
// Default mode pipes newline-delimited JSON request lines from --in (or
// stdin) to the daemon and prints one response line per request to
// stdout, in request order — the socket analogue of `spgcmp_serve
// --in=requests.jsonl`.  Requests are written from a helper thread while
// responses stream back on the main thread, so arbitrarily long request
// files cannot deadlock on full kernel buffers.
//
// --stats sends a single {"stats":true} control frame and prints the
// daemon's stats document — the same
// {"summary":...,"cache":...,"metrics":...,"deltas":...} shape the daemon
// writes to --stats-out — extracted byte-for-byte from the response.
//
// Exit codes: 0 = every request answered (or stats scraped), 1 = the
// daemon closed the connection early or answered a malformed/error stats
// response, 2 = usage or connection error.

#include <cstdio>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

#include "net/net.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace spgcmp;

/// Write all of `data`, riding out EINTR and partial writes.  Returns
/// false when the daemon closed the connection (EPIPE-class failure).
bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Read one newline-terminated response line (newline stripped).  Returns
/// false on EOF before a complete line.
bool recv_line(int fd, std::string& carry, std::string& line) {
  while (true) {
    const auto nl = carry.find('\n');
    if (nl != std::string::npos) {
      line = carry.substr(0, nl);
      carry.erase(0, nl + 1);
      return true;
    }
    char buf[1 << 16];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      carry.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

int scrape_stats(int fd) {
  if (!send_all(fd, "{\"stats\":true}\n")) {
    std::fprintf(stderr, "spgcmp_serve_client: daemon closed the connection\n");
    return 1;
  }
  ::shutdown(fd, SHUT_WR);
  std::string carry, line;
  if (!recv_line(fd, carry, line)) {
    std::fprintf(stderr, "spgcmp_serve_client: no response before EOF\n");
    return 1;
  }
  util::JsonValue doc;
  try {
    doc = util::parse_json(line);
  } catch (const util::JsonParseError& e) {
    std::fprintf(stderr, "spgcmp_serve_client: malformed response: %s\n",
                 e.what());
    return 1;
  }
  const util::JsonValue* status = doc.find("status");
  if (status == nullptr || status->string != "ok") {
    std::fprintf(stderr, "spgcmp_serve_client: error response: %s\n",
                 line.c_str());
    return 1;
  }
  // The response is {"id":...,"status":"ok","stats":<doc>} with the stats
  // document spliced in verbatim, so cutting it back out preserves the
  // exact bytes the daemon would have written to --stats-out.
  const std::string marker = "\"stats\":";
  const auto at = line.find(marker);
  if (at == std::string::npos || line.empty() || line.back() != '}') {
    std::fprintf(stderr, "spgcmp_serve_client: unexpected response shape\n");
    return 1;
  }
  std::fputs(
      (line.substr(at + marker.size(), line.size() - at - marker.size() - 1) +
       "\n")
          .c_str(),
      stdout);
  return 0;
}

int pipe_requests(int fd, std::istream& in) {
  // Writer thread: forward request lines, then half-close so the daemon
  // sees EOF and drains this connection.
  std::uint64_t sent = 0;
  std::thread writer([fd, &in, &sent] {
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (!send_all(fd, line + "\n")) break;
      ++sent;
    }
    ::shutdown(fd, SHUT_WR);
  });

  std::uint64_t received = 0;
  std::string carry, line;
  while (recv_line(fd, carry, line)) {
    std::fputs((line + "\n").c_str(), stdout);
    ++received;
  }
  writer.join();
  if (received != sent) {
    std::fprintf(stderr,
                 "spgcmp_serve_client: %llu of %llu requests answered before "
                 "the daemon closed the connection\n",
                 static_cast<unsigned long long>(received),
                 static_cast<unsigned long long>(sent));
    return 1;
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: spgcmp_serve_client --connect=ADDR [--stats] [--in=FILE]\n"
               "  ADDR is a Unix socket PATH or HOST:PORT (spgcmp_serve --listen)\n"
               "  default: pipe request lines from --in (or stdin), print responses\n"
               "  --stats: print the daemon's live stats document\n");
  return 2;
}

int client_main(const util::Args& args) {
  const std::string connect = args.get_string("connect", "", "");
  if (connect.empty()) return usage();

  int fd = -1;
  try {
    fd = net::connect_to(net::parse_address(connect));
  } catch (const net::NetError& e) {
    std::fprintf(stderr, "spgcmp_serve_client: %s\n", e.what());
    return 2;
  }

  int rc;
  if (args.has("stats")) {
    rc = scrape_stats(fd);
  } else {
    const std::string in_path = args.get_string("in", "", "");
    if (in_path.empty()) {
      rc = pipe_requests(fd, std::cin);
    } else {
      std::ifstream is(in_path);
      if (!is) {
        std::fprintf(stderr, "spgcmp_serve_client: cannot open %s\n",
                     in_path.c_str());
        ::close(fd);
        return 2;
      }
      rc = pipe_requests(fd, is);
    }
  }
  ::close(fd);
  return rc;
}

}  // namespace

int main(int argc, char** argv) try {
  const spgcmp::util::Args args(argc, argv, {"connect", "stats", "in", "help"});
  if (args.has("help")) return usage();
  return client_main(args);
} catch (const spgcmp::util::UsageError& e) {
  std::fprintf(stderr, "spgcmp_serve_client: %s\n", e.what());
  return 2;
}
