#include "util/stop_signal.hpp"

#include <csignal>

namespace spgcmp::util {

namespace {

std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler requires a lock-free stop flag");

extern "C" void on_stop_signal(int sig) {
  // Second signal: hand control back to the default action (terminate) so
  // a stuck drain can still be killed; torn-tail recovery covers the rest.
  if (g_stop.exchange(true, std::memory_order_relaxed)) {
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }
}

}  // namespace

std::atomic<bool>& stop_flag() noexcept { return g_stop; }

void install_stop_handlers() {
  // sigaction without SA_RESTART: blocking calls must fail with EINTR so
  // the serving loop wakes up and sees the flag.
  struct sigaction sa = {};
  sa.sa_handler = &on_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

void clear_stop_flag() noexcept {
  g_stop.store(false, std::memory_order_relaxed);
}

}  // namespace spgcmp::util
