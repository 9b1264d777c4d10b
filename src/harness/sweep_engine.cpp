#include "harness/sweep_engine.hpp"

#include <algorithm>
#include <cassert>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

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

std::vector<Campaign> run_tasks(const std::vector<GeneratedTask>& tasks,
                                std::size_t first, std::size_t last,
                                const cmp::Platform& p,
                                const solve::SolverSet& solvers,
                                std::size_t threads) {
  assert(first <= last && last <= tasks.size());
  std::vector<Campaign> campaigns(last - first);
  util::parallel_for(
      first, last,
      [&](std::size_t t) {
        obs::Span span("sweep.instance");
        if (span.active()) span.detail("index", static_cast<std::uint64_t>(t));
        util::Rng rng(tasks[t].seed);
        const spg::Spg g = tasks[t].make(rng);
        campaigns[t - first] = run_campaign(g, p, solvers);
      },
      normalize_threads(threads));
  return campaigns;
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
