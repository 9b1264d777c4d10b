#include "campaign/service.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>

#include "campaign/lease.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/thread_annotations.hpp"

namespace spgcmp::campaign {

std::size_t StatusReport::shards_done() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sweeps) n += s.shards_done;
  return n;
}

std::size_t StatusReport::shards_total() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sweeps) n += s.shards_total;
  return n;
}

double StatusReport::wall_seconds() const noexcept {
  double t = 0.0;
  for (const auto& s : sweeps) t += s.wall_seconds;
  return t;
}

std::size_t StatusReport::shards_timed() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sweeps) n += s.shards_timed;
  return n;
}

std::size_t StatusReport::shards_leased() const noexcept {
  std::size_t n = 0;
  for (const auto& s : sweeps) n += s.shards_leased;
  return n;
}

double StatusReport::shards_per_second() const noexcept {
  const double wall = wall_seconds();
  if (shards_timed() == 0 || wall <= 0.0) return 0.0;
  return static_cast<double>(shards_timed()) / wall;
}

double StatusReport::eta_seconds() const noexcept {
  const double rate = shards_per_second();
  if (rate <= 0.0) return -1.0;
  const std::size_t remaining = shards_total() - shards_done();
  return static_cast<double>(remaining) / rate;
}

void render_status_json(const StatusReport& rep, std::ostream& os) {
  util::JsonWriter w(os);
  w.begin_object();
  w.kv("campaign", rep.campaign);
  w.kv("complete", rep.shards_done() == rep.shards_total());
  w.kv("shards_done", static_cast<std::uint64_t>(rep.shards_done()));
  w.kv("shards_total", static_cast<std::uint64_t>(rep.shards_total()));
  w.kv("shards_leased", static_cast<std::uint64_t>(rep.shards_leased()));
  w.kv("shards_timed", static_cast<std::uint64_t>(rep.shards_timed()));
  w.kv("wall_seconds", rep.wall_seconds());
  w.key("shards_per_second");
  if (rep.shards_timed() == 0) {
    w.null();
  } else {
    w.value(rep.shards_per_second());
  }
  w.key("eta_seconds");
  if (rep.eta_seconds() < 0.0) {
    w.null();
  } else {
    w.value(rep.eta_seconds());
  }
  w.key("sweeps");
  w.begin_array();
  for (const auto& s : rep.sweeps) {
    w.begin_object();
    w.kv("name", s.name);
    w.kv("shards_done", static_cast<std::uint64_t>(s.shards_done));
    w.kv("shards_total", static_cast<std::uint64_t>(s.shards_total));
    w.kv("shards_leased", static_cast<std::uint64_t>(s.shards_leased));
    w.kv("instances_total", static_cast<std::uint64_t>(s.instances_total));
    w.kv("shards_timed", static_cast<std::uint64_t>(s.shards_timed));
    w.kv("wall_seconds", s.wall_seconds);
    w.end_object();
  }
  w.end_array();
  w.end_object();  // the indented writer terminates the document's newline
}

CampaignService::CampaignService(CampaignSpec spec, const std::string& dir)
    : spec_(std::move(spec)), store_(dir) {
  store_.initialize(spec_);
}

CampaignService CampaignService::open(const std::string& dir) {
  CampaignStore store(dir);
  return CampaignService(store.load_spec(), dir);
}

std::vector<SweepPlan> CampaignService::plans() const {
  std::vector<SweepPlan> out;
  out.reserve(spec_.sweeps.size());
  for (const auto& s : spec_.sweeps) out.emplace_back(s, spec_.topology);
  return out;
}

namespace {

using Clock = std::chrono::steady_clock;
using ShardKey = std::pair<std::string, std::size_t>;

double wall_of(const CampaignStore::ShardMap& done) {
  double wall = 0.0;
  for (const auto& [key, rec] : done) {
    if (rec.wall_seconds >= 0.0) wall += rec.wall_seconds;
  }
  return wall;
}

/// One run() call's shards: where their records go and what the records
/// it persisted add up to.  Only the pipeline's `done` callbacks write the
/// tallies, one at a time, so they need no lock.
struct ShardRun {
  ShardRun(CampaignStore& store, const std::string& campaign,
           const ServiceOptions& opt, std::size_t total,
           const CampaignStore::ShardMap& done)
      : store(store),
        campaign(campaign),
        opt(opt),
        threads(harness::normalize_threads(opt.threads)),
        total(total),
        completed(done.size()),
        wall_done(wall_of(done)) {}

  /// Open `shard` of `plan` as a pipeline batch: log it and start its
  /// `campaign.shard` span.  The batch's `done` persists the shard, then
  /// calls `after`.
  harness::Batch open(const SweepPlan& plan, std::size_t shard,
                      std::function<void()> after) {
    const auto [first, last] = plan.shard_range(shard);
    if (opt.log != nullptr) {
      *opt.log << "[campaign] " << plan.spec().name << " shard " << shard + 1
               << "/" << plan.shard_count() << " (instances " << first << ".."
               << last - 1 << ", " << threads << " threads)\n";
      opt.log->flush();
    }
    // From open to persisted, on a lane: shards overlap, and a shard is
    // persisted by whichever worker finished it.
    auto span = std::make_shared<obs::Span>("campaign.shard", obs::SpanMode::Lane);
    if (span->active()) {
      span->detail("sweep", plan.spec().name);
      span->detail("shard", static_cast<std::uint64_t>(shard));
    }
    return plan.batch(first, last,
                      [this, &plan, shard, span = std::move(span),
                       after = std::move(after)](std::vector<InstanceResult> results) mutable {
                        persist(plan, shard, results);
                        span.reset();
                        if (after) after();
                      });
  }

  /// Append one shard's record and checkpoint the manifest every
  /// `checkpoint_every` records.  The record's wall_seconds is the time
  /// since this run's previous record (or its start), so however shards
  /// overlap, the records of one run add up to its elapsed time.
  void persist(const SweepPlan& plan, std::size_t shard,
               const std::vector<InstanceResult>& results) {
    const auto now = Clock::now();
    const double wall = std::chrono::duration<double>(now - last).count();
    last = now;
    {
      const obs::Span span("campaign.persist");
      store.append_shard(plan.spec().name, shard, results, wall);
    }
    static auto& m_shards = obs::Registry::instance().counter("campaign.shards");
    static auto& m_wall = obs::Registry::instance().histogram("campaign.shard_us");
    m_shards.inc();
    m_wall.observe(wall * 1e6);
    ++persisted;
    ++completed;
    wall_done += wall;
    if (opt.checkpoint_every != 0 && persisted % opt.checkpoint_every == 0) {
      store.write_manifest({campaign, total, completed, wall_done});
    }
  }

  CampaignStore& store;
  const std::string& campaign;
  const ServiceOptions& opt;
  const std::size_t threads;
  const std::size_t total;    ///< shards in the campaign
  std::size_t completed;      ///< done in the store, as far as this run knows
  double wall_done;           ///< their wall_seconds summed
  std::size_t persisted = 0;  ///< records this run appended
  Clock::time_point last = Clock::now();  ///< previous record, or the start
};

/// True, after logging the pause, when the stop flag is up.
bool stop_requested(const ServiceOptions& opt, std::size_t opened) {
  if (opt.stop == nullptr || !opt.stop->load(std::memory_order_relaxed)) {
    return false;
  }
  if (opt.log != nullptr) {
    *opt.log << "[campaign] stop requested; pausing after " << opened
             << " shards\n";
    opt.log->flush();
  }
  return true;
}

}  // namespace

RunSummary CampaignService::run(const ServiceOptions& opt) {
  if (opt.worker.empty()) return run_single(opt);
  return run_leased(opt);
}

RunSummary CampaignService::run_single(const ServiceOptions& opt) {
  const auto all = plans();
  const auto done = store_.load_shards();

  RunSummary summary;
  for (const auto& plan : all) summary.shards_total += plan.shard_count();
  summary.shards_skipped = done.size();
  // Seeded from the records already persisted, so the manifest's
  // throughput survives pause/resume cycles.
  ShardRun run(store_, spec_.name, opt, summary.shards_total, done);

  std::vector<std::pair<const SweepPlan*, std::size_t>> pending;
  for (const auto& plan : all) {
    for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
      if (done.count({plan.spec().name, shard}) == 0) pending.emplace_back(&plan, shard);
    }
  }

  // A worker that runs dry opens the next pending shard; polling the flag
  // only there lets every open shard finish and persist.
  std::size_t opened = 0;
  harness::run_pipeline(
      [&]() -> std::optional<harness::Batch> {
        if (opened == pending.size()) return std::nullopt;
        if (stop_requested(opt, opened)) {
          summary.interrupted = true;
          return std::nullopt;
        }
        if (opt.max_shards != 0 && opened == opt.max_shards) return std::nullopt;
        const auto [plan, shard] = pending[opened++];
        return run.open(*plan, shard, nullptr);
      },
      run.threads);

  summary.shards_executed = run.persisted;
  summary.complete = run.completed == summary.shards_total;
  store_.write_manifest({spec_.name, summary.shards_total, run.completed, run.wall_done});
  if (opt.log != nullptr) {
    *opt.log << "[campaign] " << run.completed << "/" << summary.shards_total
             << " shards done (" << summary.shards_executed << " executed, "
             << summary.shards_skipped << " resumed)\n";
  }
  return summary;
}

namespace {

/// Shared state between run_leased's pipeline workers and its heartbeat
/// thread: `lease_mutex` serializes every LeaseManager call, `hb_mutex` /
/// `hb_cv` carry the heartbeat shutdown signal.
struct LeaseSync {
  spgcmp::util::Mutex lease_mutex;
  spgcmp::util::Mutex hb_mutex;
  spgcmp::util::CondVar hb_cv;
  bool hb_stop SPGCMP_GUARDED_BY(hb_mutex) = false;
};

}  // namespace

RunSummary CampaignService::run_leased(const ServiceOptions& opt) {
  const auto all = plans();
  store_.set_worker(opt.worker);
  LeaseManager leases(store_.dir(), opt.worker, opt.lease_ttl);

  RunSummary summary;
  std::vector<std::pair<const SweepPlan*, std::size_t>> shards;
  for (const auto& plan : all) {
    for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
      shards.emplace_back(&plan, shard);
    }
  }
  summary.shards_total = shards.size();
  auto done = store_.load_shards();
  summary.shards_skipped = done.size();
  ShardRun run(store_, spec_.name, opt, summary.shards_total, done);

  // Heartbeat: re-stamp every held lease every ttl/3 so a long shard is
  // not reclaimed out from under us.  The lease mutex serializes the stamp
  // against the workers' acquire and release.
  LeaseSync sync;
  std::thread heartbeat([&] {
    const auto period =
        std::chrono::duration<double>(std::max(opt.lease_ttl / 3.0, 0.2));
    const util::MutexLock lk(sync.hb_mutex);
    while (!sync.hb_stop) {
      // A spurious wakeup without the stop flag just restarts the period —
      // harmless for a keep-alive.
      const bool timed_out = sync.hb_cv.wait_for(sync.hb_mutex, period);
      if (sync.hb_stop) break;
      if (timed_out) {
        const util::MutexLock lg(sync.lease_mutex);
        leases.heartbeat();
      }
    }
  });
  const auto stop_heartbeat = [&] {
    {
      const util::MutexLock lk(sync.hb_mutex);
      sync.hb_stop = true;
    }
    sync.hb_cv.notify_all();
    if (heartbeat.joinable()) heartbeat.join();
  };

  // The source walks the shards in passes.  Each pass skips shards the
  // logs hold (other workers persist concurrently) and shards this run
  // opened, claims a lease only for the shard it opens, and remembers the
  // shards other live workers hold.  When a pass opened nothing and only
  // such shards remain, it waits until one of their leases is released or
  // goes stale (a crashed worker), at most ttl/3, then reloads the logs and
  // starts the next pass.
  std::size_t cursor = 0;
  std::set<ShardKey> ours;
  std::vector<ShardKey> blocked;
  bool progress = false;
  const auto next = [&]() -> std::optional<harness::Batch> {
    for (;;) {
      while (cursor < shards.size()) {
        const auto [plan, shard] = shards[cursor++];
        ShardKey key{plan->spec().name, shard};
        if (done.count(key) != 0 || ours.count(key) != 0) continue;
        if (stop_requested(opt, ours.size())) {
          summary.interrupted = true;
          return std::nullopt;
        }
        if (opt.max_shards != 0 && ours.size() == opt.max_shards) return std::nullopt;
        bool acquired;
        {
          const util::MutexLock lg(sync.lease_mutex);
          acquired = leases.acquire(key.first, key.second);
        }
        if (!acquired) {
          blocked.push_back(std::move(key));
          continue;
        }
        // A worker that finished this shard since the logs were loaded
        // makes us re-execute it; the keep-first log dedup makes the
        // duplicate record harmless (deterministic replay).
        ours.insert(key);
        progress = true;
        return run.open(*plan, shard, [&leases, &sync, key] {
          const util::MutexLock lg(sync.lease_mutex);
          leases.release(key.first, key.second);
        });
      }
      if (blocked.empty() && !progress) return std::nullopt;  // nothing pending
      if (!progress) {
        const double wait_s = std::max(opt.lease_ttl / 3.0, 0.2);
        const auto deadline = Clock::now() + std::chrono::duration<double>(wait_s);
        while (Clock::now() < deadline) {
          if (opt.stop != nullptr && opt.stop->load(std::memory_order_relaxed)) {
            summary.interrupted = true;
            return std::nullopt;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          const auto held = scan_leases(store_.dir(), opt.lease_ttl);
          const bool freed =
              std::any_of(blocked.begin(), blocked.end(), [&](const auto& key) {
                const auto it = held.find(key);
                return it == held.end() || !it->second.fresh;
              });
          if (freed) break;
        }
      }
      done = store_.load_shards();
      cursor = 0;
      blocked.clear();
      progress = false;
    }
  };
  try {
    harness::run_pipeline(next, run.threads);
  } catch (...) {
    stop_heartbeat();
    throw;
  }
  stop_heartbeat();

  // Final truth from the logs: other workers kept finishing while we ran.
  done = store_.load_shards();
  summary.shards_executed = run.persisted;
  summary.complete = done.size() == summary.shards_total;
  store_.write_manifest({spec_.name, summary.shards_total, done.size(), wall_of(done)});
  if (opt.log != nullptr) {
    *opt.log << "[campaign] worker " << opt.worker << ": " << done.size() << "/"
             << summary.shards_total << " shards done ("
             << summary.shards_executed << " executed here)\n";
  }
  return summary;
}

StatusReport CampaignService::status(double lease_ttl) const {
  const auto done = store_.load_shards();
  const auto leased = scan_leases(store_.dir(), lease_ttl);
  StatusReport rep;
  rep.campaign = spec_.name;
  for (const auto& plan : plans()) {
    SweepStatus s;
    s.name = plan.spec().name;
    s.shards_total = plan.shard_count();
    s.instances_total = plan.instance_count();
    for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
      const auto it = done.find({s.name, shard});
      if (it != done.end()) {
        ++s.shards_done;
        if (it->second.wall_seconds >= 0.0) {
          ++s.shards_timed;
          s.wall_seconds += it->second.wall_seconds;
        }
        continue;
      }
      // Pending: leased iff a live worker currently claims it.
      const auto lease = leased.find({s.name, shard});
      if (lease != leased.end() && lease->second.fresh) ++s.shards_leased;
    }
    rep.sweeps.push_back(std::move(s));
  }
  return rep;
}

std::vector<harness::BenchReport> CampaignService::merged_reports() const {
  const auto done = store_.load_shards();
  std::vector<harness::BenchReport> reports;
  reports.reserve(spec_.sweeps.size() + spec_.tables.size());
  // Sweep reports first, in spec order, then the tables derived from them.
  for (const auto& sweep : spec_.sweeps) {
    const SweepPlan plan(sweep, spec_.topology);
    std::vector<InstanceResult> results;
    results.reserve(plan.instance_count());
    for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
      const auto it = done.find({plan.spec().name, shard});
      if (it == done.end()) {
        throw std::runtime_error("campaign incomplete: sweep '" +
                                 plan.spec().name + "' is missing shard " +
                                 std::to_string(shard) + " of " +
                                 std::to_string(plan.shard_count()) +
                                 " (run or resume it first)");
      }
      const auto [first, last] = plan.shard_range(shard);
      if (it->second.results.size() != last - first) {
        throw std::runtime_error("sweep '" + plan.spec().name + "' shard " +
                                 std::to_string(shard) +
                                 ": instance count mismatch");
      }
      results.insert(results.end(), it->second.results.begin(),
                     it->second.results.end());
    }
    reports.push_back(sweep_report(sweep, spec_.topology, results));
  }
  for (auto& table : table_reports(spec_, reports)) {
    reports.push_back(std::move(table));
  }
  return reports;
}

std::vector<std::string> CampaignService::merge(const std::string& out_dir) const {
  // Build everything before writing anything: an incomplete campaign must
  // not leave a half-merged output directory behind.
  const auto reports = merged_reports();
  std::vector<std::string> paths;
  paths.reserve(reports.size());
  for (const auto& rep : reports) {
    paths.push_back(rep.write_json_file(out_dir));
  }
  return paths;
}

}  // namespace spgcmp::campaign
