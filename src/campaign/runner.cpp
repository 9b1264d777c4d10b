#include "campaign/runner.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <memory>

#include "spg/generator.hpp"
#include "spg/streamit.hpp"

namespace spgcmp::campaign {

solve::SolverSet sweep_solvers(const SweepSpec& spec) {
  if (spec.solvers.empty()) return solve::SolverSet::paper();
  std::string csv;
  for (const auto& s : spec.solvers) {
    if (!csv.empty()) csv += ',';
    csv += s;
  }
  return solve::SolverSet::parse(csv);
}

std::vector<std::string> sweep_solver_names(const SweepSpec& spec) {
  return sweep_solvers(spec).names();
}

double InstanceResult::best_energy() const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t h = 0; h < energy.size(); ++h) {
    if (success[h]) best = std::min(best, energy[h]);
  }
  return std::isfinite(best) ? best : 0.0;
}

double InstanceResult::normalized_energy(std::size_t h) const {
  const double best = best_energy();
  if (best <= 0 || !success[h]) return 0.0;
  return energy[h] / best;
}

double InstanceResult::normalized_inverse_energy(std::size_t h) const {
  const double best = best_energy();
  if (best <= 0 || !success[h]) return 0.0;
  return best / energy[h];
}

InstanceResult summarize(const harness::Campaign& c) {
  InstanceResult r;
  r.period = c.period;
  r.energy.reserve(c.results.size());
  r.success.reserve(c.results.size());
  for (const auto& res : c.results) {
    r.energy.push_back(res.success ? res.eval.energy : 0.0);
    r.success.push_back(res.success ? 1 : 0);
  }
  return r;
}

std::uint64_t random_workload_seed(std::uint64_t seed_base, std::size_t n, int y,
                                   double ccr, std::size_t w) {
  std::uint64_t s = seed_base;
  s = s * 1000003 + n;
  s = s * 1000003 + static_cast<std::uint64_t>(y);
  s = s * 1000003 + static_cast<std::uint64_t>(ccr * 1000);
  s = s * 1000003 + w;
  return s;
}

SweepPlan::SweepPlan(SweepSpec spec, const std::string& topology)
    : spec_(std::move(spec)),
      topology_(topology),
      platform_(cmp::Platform::reference(topology, spec_.rows, spec_.cols)),
      solvers_(sweep_solvers(spec_)),
      shard_size_(spec_.shard_size != 0 ? spec_.shard_size : kDefaultShardSize) {
  if (spec_.kind == SweepKind::Streamit) {
    // CCR-major, application-minor — the cell order of Figures 8/9.
    for (const auto& [label, ccr] : streamit_ccrs()) {
      const double c = ccr;
      for (const auto& info : spg::streamit_table()) {
        tasks_.push_back({0, [&info, c](util::Rng&) {
                            return spg::make_streamit(info, c);
                          }});
      }
    }
  } else {
    // CCR-major, elevation-minor, workload-minor — Figures 10-13.
    const std::size_t n = spec_.n;
    for (const double ccr : random_ccrs()) {
      for (const int y : spec_.elevations) {
        for (std::size_t w = 0; w < spec_.apps; ++w) {
          tasks_.push_back({random_workload_seed(spec_.seed_base, n, y, ccr, w),
                            [n, y, ccr](util::Rng& rng) {
                              spg::Spg g = spg::random_spg(n, y, rng);
                              g.rescale_ccr(ccr);
                              return g;
                            }});
        }
      }
    }
  }
}

std::size_t SweepPlan::shard_count() const noexcept {
  return (tasks_.size() + shard_size_ - 1) / shard_size_;
}

std::pair<std::size_t, std::size_t> SweepPlan::shard_range(
    std::size_t shard) const noexcept {
  const std::size_t first = shard * shard_size_;
  const std::size_t last = std::min(first + shard_size_, tasks_.size());
  return {first, last};
}

harness::Batch SweepPlan::batch(
    std::size_t first, std::size_t last,
    std::function<void(std::vector<InstanceResult>)> done) const {
  auto results = std::make_shared<std::vector<InstanceResult>>(last - first);
  return {last - first,
          [this, first, results](std::size_t i) {
            (*results)[i] = summarize(
                harness::run_task(tasks_[first + i], first + i, platform_, solvers_));
          },
          [results, done = std::move(done)] { done(std::move(*results)); }};
}

std::vector<InstanceResult> SweepPlan::run_all(std::size_t threads) const {
  std::vector<InstanceResult> results;
  std::vector<harness::Batch> one;
  one.push_back(batch(0, tasks_.size(), [&](std::vector<InstanceResult> r) {
    results = std::move(r);
  }));
  harness::run_pipeline(std::move(one), threads);
  return results;
}

}  // namespace spgcmp::campaign
