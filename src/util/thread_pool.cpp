#include "util/thread_pool.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <csignal>
#include <pthread.h>

namespace spgcmp::util {

namespace {

obs::Gauge& queue_depth_gauge() {
  static auto& g = obs::Registry::instance().gauge("pool.queue_depth");
  return g;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  // Workers inherit a mask blocking SIGINT, SIGTERM and SIGUSR1, so a
  // process-directed signal lands on a thread that is not solving: in the
  // serve daemon the main thread (the SIGUSR1 dump loop) or the poll loop,
  // whose poll(2) then returns EINTR and re-checks the stop flag at once
  // rather than at its next poll interval.
  sigset_t block, prev;
  sigemptyset(&block);
  sigaddset(&block, SIGINT);
  sigaddset(&block, SIGTERM);
  sigaddset(&block, SIGUSR1);
  pthread_sigmask(SIG_BLOCK, &block, &prev);
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  pthread_sigmask(SIG_SETMASK, &prev, nullptr);
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const MutexLock lock(mutex_);
    if (stop_) throw std::logic_error("ThreadPool::submit after shutdown");
    queue_.push(std::move(task));
  }
  static auto& m_tasks = obs::Registry::instance().counter("pool.tasks");
  m_tasks.inc();
  queue_depth_gauge().add(1);
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  const MutexLock lock(mutex_);
  while (!(queue_.empty() && in_flight_ == 0)) cv_idle_.wait(mutex_);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) cv_task_.wait(mutex_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++in_flight_;
    }
    queue_depth_gauge().add(-1);
    {
      // Begin/end (not complete) events so an interrupted worker still
      // leaves its open task visible in a partial trace.
      const obs::Span span("pool.task", obs::SpanMode::BeginEnd);
      task();
    }
    {
      const MutexLock lock(mutex_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace spgcmp::util
