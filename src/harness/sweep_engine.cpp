#include "harness/sweep_engine.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_annotations.hpp"

namespace spgcmp::harness {

std::uint64_t instance_seed(std::uint64_t base, std::uint64_t index) noexcept {
  // Two splitmix64 steps over a combined state: both inputs avalanche, so
  // (base, 0), (base, 1), ... are decorrelated streams and distinct bases
  // never collide for small indices.
  std::uint64_t state = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  std::uint64_t out = util::splitmix64(state);
  out ^= util::splitmix64(state);
  return out;
}

std::size_t normalize_threads(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

Campaign run_task(const GeneratedTask& task, std::size_t index,
                  const cmp::Platform& p, const solve::SolverSet& solvers) {
  obs::Span span("sweep.instance");
  if (span.active()) span.detail("index", static_cast<std::uint64_t>(index));
  util::Rng rng(task.seed);
  const spg::Spg g = task.make(rng);
  return run_campaign(g, p, solvers);
}

namespace {

/// The shared queue of run_pipeline's workers.  Opened batches wait in
/// open order until they are done; only the newest can still have
/// instances nobody has taken, since a worker opens a batch only when
/// every opened instance is taken.  Instances run outside the lock on
/// every worker; two roles also run outside it, each held by one worker
/// at a time: opening a batch (`next`) and delivering finished batches
/// (`done`, front to back).
class Pipeline {
 public:
  explicit Pipeline(const BatchSource& next) : next_(next) {}

  /// One worker's loop, under one `harness.worker` span: take an instance,
  /// or open a batch, until the source is exhausted or an error stops the
  /// pipeline.  Every error it hits is kept for rethrow().
  void work() SPGCMP_EXCLUDES(mutex_) {
    const obs::Span span("harness.worker", obs::SpanMode::BeginEnd);
    try {
      loop();
    } catch (...) {
      fail(std::current_exception());
    }
  }

  /// Stop the pipeline with `e` unless an earlier error already did: no
  /// batch opens or finishes after it, and rethrow() throws the first.
  void fail(std::exception_ptr e) SPGCMP_EXCLUDES(mutex_) {
    {
      const util::MutexLock lk(mutex_);
      if (!error_) error_ = std::move(e);
    }
    cv_.notify_all();
  }

  /// The first error any role hit, if any (after every worker returned).
  void rethrow() SPGCMP_EXCLUDES(mutex_) {
    std::exception_ptr e;
    {
      const util::MutexLock lk(mutex_);
      e = error_;
    }
    if (e) std::rethrow_exception(e);
  }

 private:
  struct OpenBatch {
    Batch batch;
    std::size_t taken = 0;     ///< instances handed to workers
    std::size_t finished = 0;  ///< instances that have run
  };

  [[nodiscard]] bool taken_all() const SPGCMP_REQUIRES(mutex_) {
    return open_.empty() || open_.back().taken == open_.back().batch.size;
  }

  void loop() SPGCMP_EXCLUDES(mutex_) {
    for (;;) {
      OpenBatch* batch = nullptr;
      std::size_t index = 0;
      {
        const util::MutexLock lk(mutex_);
        for (;;) {
          if (error_ || (exhausted_ && taken_all())) return;
          if (!taken_all()) {
            batch = &open_.back();
            index = batch->taken++;
            break;
          }
          if (!opening_) {
            opening_ = true;
            break;
          }
          cv_.wait(mutex_);
        }
      }
      if (batch == nullptr) {
        open();
        continue;
      }
      batch->batch.run(index);
      bool complete = false;
      {
        const util::MutexLock lk(mutex_);
        complete = ++batch->finished == batch->batch.size;
      }
      if (complete) deliver();
    }
  }

  void open() SPGCMP_EXCLUDES(mutex_) {
    std::optional<Batch> batch = next_();
    const bool empty = batch && batch->size == 0;
    {
      const util::MutexLock lk(mutex_);
      opening_ = false;
      if (batch) {
        open_.push_back(OpenBatch{std::move(*batch)});
      } else {
        exhausted_ = true;
      }
    }
    cv_.notify_all();
    if (empty) deliver();  // nothing will run, so nothing else finishes it
  }

  /// Run `done` of every finished batch at the front, in open order,
  /// unless another worker already is.
  void deliver() SPGCMP_EXCLUDES(mutex_) {
    {
      const util::MutexLock lk(mutex_);
      if (delivering_) return;  // the deliverer re-checks the front
      delivering_ = true;
    }
    for (;;) {
      std::function<void()> done;
      {
        const util::MutexLock lk(mutex_);
        if (error_ || open_.empty() ||
            open_.front().finished != open_.front().batch.size) {
          delivering_ = false;
          return;
        }
        done = std::move(open_.front().batch.done);
        open_.pop_front();
      }
      if (done) done();
    }
  }

  const BatchSource& next_;
  util::Mutex mutex_;
  util::CondVar cv_;
  // A deque keeps the references workers hold to open batches valid while
  // batches are opened behind them and delivered ahead of them.
  std::deque<OpenBatch> open_ SPGCMP_GUARDED_BY(mutex_);
  bool opening_ SPGCMP_GUARDED_BY(mutex_) = false;
  bool exhausted_ SPGCMP_GUARDED_BY(mutex_) = false;
  bool delivering_ SPGCMP_GUARDED_BY(mutex_) = false;
  std::exception_ptr error_ SPGCMP_GUARDED_BY(mutex_);
};

}  // namespace

void run_pipeline(const BatchSource& next, std::size_t threads) {
  Pipeline pipeline(next);
  // The calling thread is one of the workers.  A thread that cannot start
  // stops the pipeline like any other error, after the started ones join.
  const std::size_t workers = normalize_threads(threads);
  std::vector<std::thread> others;
  others.reserve(workers - 1);
  try {
    while (others.size() + 1 < workers) {
      others.emplace_back([&pipeline] { pipeline.work(); });
    }
  } catch (...) {
    pipeline.fail(std::current_exception());
  }
  pipeline.work();
  for (auto& t : others) t.join();
  pipeline.rethrow();
}

void run_pipeline(std::vector<Batch> batches, std::size_t threads) {
  std::size_t opened = 0;
  run_pipeline(
      [&]() -> std::optional<Batch> {
        if (opened == batches.size()) return std::nullopt;
        return std::move(batches[opened++]);
      },
      threads);
}

void BenchReport::write_json(std::ostream& os) const {
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("bench", name);
  w.kv("metric", metric);
  if (!meta.empty()) {
    w.key("meta");
    w.begin_object();
    for (const auto& [k, v] : meta) w.kv(k, v);
    w.end_object();
  }
  w.key("heuristics");
  w.value(heuristics);
  w.key("cells");
  w.begin_array();
  for (const auto& cell : cells) {
    w.begin_object();
    for (const auto& [k, v] : cell.labels) w.kv(k, v);
    if (cell.period > 0.0) w.kv("period", cell.period);
    // size_t: explicit widening keeps the overload set unambiguous on
    // platforms where size_t is neither int64_t nor uint64_t exactly.
    w.kv("workloads", static_cast<std::uint64_t>(cell.workloads));
    w.key("values");
    w.value(cell.values);
    w.key("failures");
    w.value(cell.failures);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string BenchReport::write_json_file(const std::string& dir) const {
  const std::string base = dir.empty() ? std::string(".") : dir;
  std::filesystem::create_directories(base);
  const std::string path = base + "/BENCH_" + name + ".json";
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open " + path + " for writing");
  write_json(os);
  return path;
}

}  // namespace spgcmp::harness
