#pragma once

// Cooperative SIGINT/SIGTERM shutdown for the long-running tools.
//
// The campaign and serve daemons must not die mid-write on Ctrl-C: they
// finish the in-flight unit of work, checkpoint, and exit with the
// documented pause code 3.  install_stop_handlers() routes both signals to
// a process-wide atomic flag that their main loops poll between units.
//
// Two deliberate choices:
//   * handlers are installed *without* SA_RESTART, so a signal arriving
//     during a blocking call (the serve loop's poll) fails it with EINTR
//     and the loop observes the flag at once;
//   * a second signal restores the default disposition and re-raises, so
//     an impatient operator still gets a hard kill — which the JSONL
//     torn-tail recovery is designed to survive.
//
// The flag itself is a lock-free std::atomic<bool> (static_assert'd in the
// .cpp), so there is no capability for the thread-safety analysis to
// track: any thread may read it, only the handlers and tests write it.

#include <atomic>

namespace spgcmp::util {

/// The process-wide stop flag the handlers set.  Lock-free and
/// async-signal-safe to read from any loop.
[[nodiscard]] std::atomic<bool>& stop_flag() noexcept;

/// Install SIGINT and SIGTERM handlers that set stop_flag().  Idempotent.
void install_stop_handlers();

/// Reset stop_flag() to false (tests that raise() a signal in-process).
void clear_stop_flag() noexcept;

}  // namespace spgcmp::util
