#pragma once

// A small fixed-size thread pool: the serve engine's solve workers.
//
// Work is parallel only across independent units: serve requests here, and
// campaign instances in harness::run_pipeline, which starts its own worker
// threads.  A solver runs on the thread that calls solve::run, so a task
// carries no per-thread state from its submitter; heuristics stay
// single-threaded, deterministic and comparable to the paper.

#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace spgcmp::util {

/// Fixed-size pool executing submitted tasks FIFO.  Threads are joined in
/// the destructor; submitting after shutdown is a programming error.
class ThreadPool {
 public:
  /// `threads == 0` selects std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task for asynchronous execution.
  void submit(std::function<void()> task) SPGCMP_EXCLUDES(mutex_);

  /// Block until all submitted tasks have finished.
  void wait_idle() SPGCMP_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size(); }

 private:
  void worker_loop() SPGCMP_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar cv_task_;
  CondVar cv_idle_;
  std::queue<std::function<void()>> queue_ SPGCMP_GUARDED_BY(mutex_);
  std::size_t in_flight_ SPGCMP_GUARDED_BY(mutex_) = 0;
  bool stop_ SPGCMP_GUARDED_BY(mutex_) = false;
};

}  // namespace spgcmp::util
