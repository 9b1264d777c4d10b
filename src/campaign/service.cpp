#include "campaign/service.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
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

double CampaignService::execute_shard(const SweepPlan& plan, std::size_t shard,
                                      std::size_t threads,
                                      const ServiceOptions& opt) {
  const auto [first, last] = plan.shard_range(shard);
  if (opt.log != nullptr) {
    *opt.log << "[campaign] " << plan.spec().name << " shard " << shard + 1
             << "/" << plan.shard_count() << " (instances " << first << ".."
             << last - 1 << ", " << threads << " threads)\n";
    opt.log->flush();
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<InstanceResult> results;
  {
    // Begin/end so a killed campaign still shows the open shard in a
    // partial trace.
    obs::Span span("campaign.shard", obs::SpanMode::BeginEnd);
    if (span.active()) {
      span.detail("sweep", plan.spec().name);
      span.detail("shard", static_cast<std::uint64_t>(shard));
    }
    results = plan.run_shard(shard, threads);
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  store_.append_shard(plan.spec().name, shard, results, wall);
  static auto& m_shards = obs::Registry::instance().counter("campaign.shards");
  static auto& m_wall = obs::Registry::instance().histogram("campaign.shard_us");
  m_shards.inc();
  m_wall.observe(wall * 1e6);
  return wall;
}

RunSummary CampaignService::run(const ServiceOptions& opt) {
  if (opt.worker.empty()) return run_single(opt);
  return run_leased(opt);
}

RunSummary CampaignService::run_single(const ServiceOptions& opt) {
  const auto all = plans();
  const auto done = store_.load_shards();

  RunSummary summary;
  for (const auto& plan : all) summary.shards_total += plan.shard_count();

  std::size_t completed = done.size();
  summary.shards_skipped = completed;

  // Seed the manifest's wall-clock total from already-persisted timings so
  // throughput survives pause/resume cycles.
  double wall_done = 0.0;
  for (const auto& [key, rec] : done) {
    if (rec.wall_seconds >= 0.0) wall_done += rec.wall_seconds;
  }

  const std::size_t threads = harness::normalize_threads(opt.threads);
  bool stopped = false;
  for (const auto& plan : all) {
    if (stopped) break;
    for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
      if (done.count({plan.spec().name, shard}) != 0) continue;
      // Polled only between shards, so an interrupt lets the in-flight
      // shard finish and persist before the manifest checkpoint below.
      if (opt.stop != nullptr && opt.stop->load(std::memory_order_relaxed)) {
        summary.interrupted = true;
        stopped = true;
        if (opt.log != nullptr) {
          *opt.log << "[campaign] stop requested; pausing after "
                   << summary.shards_executed << " shards\n";
          opt.log->flush();
        }
        break;
      }
      if (opt.max_shards != 0 && summary.shards_executed >= opt.max_shards) {
        stopped = true;
        break;
      }
      wall_done += execute_shard(plan, shard, threads, opt);
      ++summary.shards_executed;
      ++completed;
      if (opt.checkpoint_every != 0 &&
          summary.shards_executed % opt.checkpoint_every == 0) {
        store_.write_manifest(
            {spec_.name, summary.shards_total, completed, wall_done});
      }
    }
  }

  summary.complete = completed == summary.shards_total;
  store_.write_manifest({spec_.name, summary.shards_total, completed, wall_done});
  if (opt.log != nullptr) {
    *opt.log << "[campaign] " << completed << "/" << summary.shards_total
             << " shards done (" << summary.shards_executed << " executed, "
             << summary.shards_skipped << " resumed)\n";
  }
  return summary;
}

namespace {

/// Shared state between run_leased's claiming thread and its heartbeat
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
  for (const auto& plan : all) summary.shards_total += plan.shard_count();
  bool skipped_recorded = false;

  // Heartbeat: re-stamp held leases every ttl/3 so a long shard is not
  // reclaimed out from under us.  The lease mutex serializes the stamp
  // against acquire/release on the main thread.
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

  const std::size_t threads = harness::normalize_threads(opt.threads);
  std::size_t completed = 0;
  double wall_done = 0.0;
  bool stopped = false;
  try {
    // Rescan until the campaign is complete or stopped: each pass reloads
    // the shard logs (other workers persist shards concurrently), claims
    // pending unleased shards in deterministic order, and when only other
    // live workers' shards remain, waits a beat and rescans — a worker
    // that crashed mid-shard leaves an expiring lease that a later pass
    // reclaims.
    while (!stopped) {
      const auto done = store_.load_shards();
      completed = done.size();
      wall_done = 0.0;
      for (const auto& [key, rec] : done) {
        if (rec.wall_seconds >= 0.0) wall_done += rec.wall_seconds;
      }
      if (!skipped_recorded) {
        summary.shards_skipped = completed;
        skipped_recorded = true;
      }
      if (completed == summary.shards_total) break;

      bool progress = false;
      // Shards this pass found leased by another live worker.
      std::vector<std::pair<std::string, std::size_t>> blocked;
      for (const auto& plan : all) {
        if (stopped) break;
        for (std::size_t shard = 0; shard < plan.shard_count(); ++shard) {
          if (done.count({plan.spec().name, shard}) != 0) continue;
          if (opt.stop != nullptr &&
              opt.stop->load(std::memory_order_relaxed)) {
            summary.interrupted = true;
            stopped = true;
            if (opt.log != nullptr) {
              *opt.log << "[campaign] stop requested; pausing after "
                       << summary.shards_executed << " shards\n";
              opt.log->flush();
            }
            break;
          }
          if (opt.max_shards != 0 &&
              summary.shards_executed >= opt.max_shards) {
            stopped = true;
            break;
          }
          bool ours;
          {
            const util::MutexLock lg(sync.lease_mutex);
            ours = leases.acquire(plan.spec().name, shard);
          }
          if (!ours) {
            blocked.emplace_back(plan.spec().name, shard);
            continue;
          }
          // A worker that finished this shard between our reload and this
          // acquire makes us re-execute it; the keep-first log dedup makes
          // the duplicate record harmless (deterministic replay).
          wall_done += execute_shard(plan, shard, threads, opt);
          {
            const util::MutexLock lg(sync.lease_mutex);
            leases.release(plan.spec().name, shard);
          }
          ++summary.shards_executed;
          ++completed;
          progress = true;
          if (opt.checkpoint_every != 0 &&
              summary.shards_executed % opt.checkpoint_every == 0) {
            store_.write_manifest(
                {spec_.name, summary.shards_total, completed, wall_done});
          }
        }
      }
      if (stopped) break;
      if (blocked.empty() && !progress) break;  // nothing pending anywhere
      if (!progress) {
        // Only other live workers' shards remain: wait (stop-aware) until
        // one of the leases that blocked this pass is released or goes
        // stale, at most ttl/3, then rescan.
        const double wait_s = std::max(opt.lease_ttl / 3.0, 0.2);
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::duration<double>(wait_s);
        while (std::chrono::steady_clock::now() < deadline) {
          if (opt.stop != nullptr &&
              opt.stop->load(std::memory_order_relaxed)) {
            summary.interrupted = true;
            stopped = true;
            break;
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
    }
  } catch (...) {
    stop_heartbeat();
    throw;
  }
  stop_heartbeat();

  // Final truth from the logs: other workers kept finishing while we ran.
  {
    const auto done = store_.load_shards();
    completed = done.size();
    wall_done = 0.0;
    for (const auto& [key, rec] : done) {
      if (rec.wall_seconds >= 0.0) wall_done += rec.wall_seconds;
    }
  }
  summary.complete = completed == summary.shards_total;
  store_.write_manifest({spec_.name, summary.shards_total, completed, wall_done});
  if (opt.log != nullptr) {
    *opt.log << "[campaign] worker " << opt.worker << ": " << completed << "/"
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
