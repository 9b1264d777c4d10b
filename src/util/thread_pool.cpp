#include "util/thread_pool.hpp"

#include <array>
#include <atomic>
#include <exception>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#include <csignal>
#include <pthread.h>

namespace spgcmp::util {

namespace {

// Append-only propagator registry, written during static initialization
// only (register_thread_context documents the contract); the release store
// of the count publishes the entries to worker threads reading acquire.
constexpr std::size_t kMaxPropagators = 8;
std::array<ThreadContextPropagator, kMaxPropagators> g_propagators;
std::atomic<std::size_t> g_propagator_count{0};

/// Contexts captured on the spawning thread, one slot per propagator.
using CapturedContext = std::array<void*, kMaxPropagators>;

std::size_t capture_thread_context(CapturedContext& ctx) {
  const std::size_t n = g_propagator_count.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) ctx[i] = g_propagators[i].capture();
  return n;
}

/// Installs a captured context on the current thread for its lifetime.
class ThreadContextScope {
 public:
  ThreadContextScope(const CapturedContext& ctx, std::size_t n) : n_(n) {
    for (std::size_t i = 0; i < n_; ++i) {
      prev_[i] = g_propagators[i].install(ctx[i]);
    }
  }
  ~ThreadContextScope() {
    for (std::size_t i = n_; i > 0; --i) {
      g_propagators[i - 1].restore(prev_[i - 1]);
    }
  }
  ThreadContextScope(const ThreadContextScope&) = delete;
  ThreadContextScope& operator=(const ThreadContextScope&) = delete;

 private:
  CapturedContext prev_{};
  std::size_t n_;
};

obs::Gauge& queue_depth_gauge() {
  static auto& g = obs::Registry::instance().gauge("pool.queue_depth");
  return g;
}

}  // namespace

void register_thread_context(const ThreadContextPropagator& propagator) {
  if (propagator.capture == nullptr || propagator.install == nullptr ||
      propagator.restore == nullptr) {
    throw std::invalid_argument(
        "register_thread_context: all three hooks must be set");
  }
  const std::size_t i = g_propagator_count.load(std::memory_order_relaxed);
  if (i >= kMaxPropagators) {
    throw std::length_error("register_thread_context: propagator table full");
  }
  g_propagators[i] = propagator;
  g_propagator_count.store(i + 1, std::memory_order_release);
}

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
  // Each task carries the submitting thread's context (captured here) and
  // installs it around its own execution on whichever worker picks it up.
  CapturedContext ctx{};
  const std::size_t n = capture_thread_context(ctx);
  std::function<void()> wrapped =
      n == 0 ? std::move(task) : std::function<void()>([ctx, n, inner = std::move(task)] {
        const ThreadContextScope scope(ctx, n);
        inner();
      });
  {
    const MutexLock lock(mutex_);
    if (stop_) throw std::logic_error("ThreadPool::submit after shutdown");
    queue_.push(std::move(wrapped));
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

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (begin >= end) return;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  const std::size_t items = end - begin;
  if (threads > items) threads = items;
  if (threads == 1) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  std::atomic<std::size_t> next{begin};
  std::exception_ptr first_error;
  Mutex error_mutex;
  // Workers adopt the calling thread's context (e.g. an active per-solve
  // evaluator-call sink) for the duration of the loop; the calling thread
  // re-installs its own context onto itself, which is a no-op.
  CapturedContext ctx{};
  const std::size_t ctx_n = capture_thread_context(ctx);
  auto run = [&] {
    const ThreadContextScope scope(ctx, ctx_n);
    const obs::Span span("pool.parallel_for", obs::SpanMode::BeginEnd);
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= end) return;
      try {
        body(i);
      } catch (...) {
        const MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        next.store(end, std::memory_order_relaxed);  // drain remaining work
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 0; t + 1 < threads; ++t) pool.emplace_back(run);
  run();
  for (auto& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace spgcmp::util
