// paper_grid and paper_campaign: the paper's Section 6 grid
// (campaign::CampaignSpec::paper), once one-shot the way bench_run_all
// runs it, once sharded through the campaign service.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <sstream>

#include "campaign/report.hpp"
#include "campaign/service.hpp"
#include "common.hpp"

namespace spgbench {

namespace {

using namespace spgcmp;
namespace fs = std::filesystem;

/// The paper spec at the benchmark's knobs.
campaign::CampaignSpec grid_spec(const Options& opt) {
  return campaign::CampaignSpec::paper(opt.apps, opt.apps150, opt.step, opt.step150,
                                       "mesh");
}

/// The order the sweeps run in: a permutation drawn from the workload seed.
std::vector<std::size_t> sweep_order(const Options& opt, std::size_t count) {
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  std::mt19937_64 rng(opt.seed);
  for (std::size_t i = count; i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

std::vector<campaign::SweepPlan> grid_plans(const campaign::CampaignSpec& spec) {
  std::vector<campaign::SweepPlan> plans;
  plans.reserve(spec.sweeps.size());
  for (const auto& s : spec.sweeps) plans.emplace_back(s, spec.topology);
  return plans;
}

/// The spec's derived tables from its finished sweep reports (the merge
/// step of CampaignService, which bench_run_all's tables match byte for
/// byte).
void append_tables(const campaign::CampaignSpec& spec,
                   std::vector<harness::BenchReport>& reports) {
  const std::size_t sweeps = spec.sweeps.size();
  reports.reserve(sweeps + spec.tables.size());
  for (const auto& t : spec.tables) {
    std::vector<const harness::BenchReport*> sources;
    std::vector<const campaign::SweepSpec*> source_specs;
    for (const auto& from : t.from) {
      for (std::size_t i = 0; i < sweeps; ++i) {
        if (spec.sweeps[i].name == from) {
          sources.push_back(&reports[i]);
          source_specs.push_back(&spec.sweeps[i]);
        }
      }
    }
    reports.push_back(campaign::table_report(t, sources, source_specs));
  }
}

std::string report_bytes(const harness::BenchReport& rep) {
  std::ostringstream os;
  rep.write_json(os);
  return os.str();
}

/// Spec and plan expansion takes microseconds, below the clock's jitter:
/// each set-up sample averages expansions over this much time.
constexpr double kSetupSampleS = 0.005;

using Digests = std::vector<std::pair<std::string, std::string>>;

void emit_digests(JsonWriter& out, std::string_view key, const Digests& d) {
  out.key(key);
  out.begin_object();
  for (const auto& [name, hex] : d) out.kv(name, hex);
  out.end_object();
}

/// Instances feeding each report: its own for a sweep, its sources' for a
/// table.  A report that fails its byte check fails these instances.
void emit_report_instances(JsonWriter& out, const campaign::CampaignSpec& spec,
                           const std::vector<campaign::SweepPlan>& plans) {
  std::map<std::string, std::size_t> count;
  for (const auto& p : plans) count[p.spec().name] = p.instance_count();
  out.key("report_instances");
  out.begin_object();
  for (const auto& p : plans) out.kv(p.spec().name, p.instance_count());
  for (const auto& t : spec.tables) {
    std::size_t n = 0;
    for (const auto& from : t.from) n += count[from];
    out.kv(t.name, n);
  }
  out.end_object();
}

void emit_knobs(JsonWriter& out, const Options& opt) {
  out.key("knobs");
  out.begin_object();
  out.kv("apps", opt.apps);
  out.kv("apps150", opt.apps150);
  out.kv("step", opt.step);
  out.kv("step150", opt.step150);
  out.kv("topology", "mesh");
  out.kv("solvers", "paper");
  out.end_object();
}

/// Per-heuristic share of instances without a feasible mapping, from the
/// first `sweeps` reports (each cell counts its workloads and failures).
void emit_infeasible(JsonWriter& out, const std::vector<harness::BenchReport>& reports,
                     std::size_t sweeps) {
  std::map<std::string, std::pair<std::size_t, std::size_t>> tally;  // fail, all
  for (std::size_t i = 0; i < sweeps; ++i) {
    const auto& rep = reports[i];
    for (const auto& cell : rep.cells) {
      for (std::size_t h = 0; h < rep.heuristics.size(); ++h) {
        auto& [fail, all] = tally[rep.heuristics[h]];
        fail += cell.failures.at(h);
        all += cell.workloads;
      }
    }
  }
  out.key("infeasible_share");
  out.begin_object();
  for (const auto& [name, fa] : tally) {
    out.kv(name, fa.second == 0 ? 0.0
                                : static_cast<double>(fa.first) /
                                      static_cast<double>(fa.second));
  }
  out.end_object();
}

/// One-shot grid, sweep by sweep through SweepPlan::run_all, as
/// bench_run_all schedules it, in `order`; returns every report in spec
/// order, sweeps then tables.  `sweep_wall[i]` times sweep i.
std::vector<harness::BenchReport> run_grid_once(
    const campaign::CampaignSpec& spec, const std::vector<campaign::SweepPlan>& plans,
    const std::vector<std::size_t>& order, std::size_t threads,
    std::vector<double>& sweep_wall) {
  std::vector<harness::BenchReport> reports(plans.size());
  sweep_wall.assign(plans.size(), 0.0);
  for (const std::size_t i : order) {
    const double t0 = now_s();
    reports[i] = campaign::sweep_report(spec.sweeps[i], spec.topology,
                                        plans[i].run_all(threads));
    sweep_wall[i] = now_s() - t0;
  }
  append_tables(spec, reports);
  return reports;
}

Digests digests_of(const std::vector<harness::BenchReport>& reports) {
  Digests d;
  for (const auto& rep : reports) d.emplace_back(rep.name, digest(report_bytes(rep)));
  return d;
}

/// Every pass of one run must produce the same bytes.
void check_repeat(const Digests& first, const Digests& now, std::size_t pass,
                  Ledger& ledger) {
  if (now != first) {
    ledger.fail("pass " + std::to_string(pass) +
                " produced different report bytes than pass 0");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  if (!is) throw std::runtime_error("cannot read " + path);
  return os.str();
}

}  // namespace

void run_paper_grid(const Options& opt, JsonWriter& out, Ledger& ledger) {
  emit_knobs(out, opt);
  campaign::CampaignSpec spec;
  std::vector<campaign::SweepPlan> plans;
  const auto setup = [&] {
    spec = grid_spec(opt);
    plans = grid_plans(spec);
  };
  const auto setup_s = setup_samples([] {}, setup, kSetupSampleS);
  emit_report_instances(out, spec, plans);
  const auto order = sweep_order(opt, plans.size());
  std::size_t instances = 0;
  for (const auto& p : plans) instances += p.instance_count();

  Digests first;
  Schedule schedule(opt);
  bool traced = false;
  out.key("passes");
  out.begin_array();
  for (std::size_t pass = 0; schedule.next(traced); ++pass) {
    const std::string trace_file = trace_path(pass);
    const auto c0 = counters();
    if (traced) trace_begin();
    std::vector<double> sweep_wall;
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    const auto reports = run_grid_once(spec, plans, order, opt.threads, sweep_wall);
    const auto d = digests_of(reports);
    const double wall = now_s() - t0;
    const double cpu = cpu_s() - cpu0;
    if (traced) trace_end(trace_file);
    const auto c1 = counters();

    ledger.attempted += instances;
    if (pass == 0) first = d;
    check_repeat(first, d, pass, ledger);

    out.begin_object();
    out.kv("traced", traced);
    out.kv("wall_s", wall);
    out.kv("cpu_s", cpu);
    out.kv("ops", instances);
    if (traced) out.kv("trace", trace_file);
    out.key("sweep_wall_s");
    out.begin_object();
    for (std::size_t i = 0; i < plans.size(); ++i) {
      out.kv(plans[i].spec().name, sweep_wall[i]);
    }
    out.end_object();
    emit_counters(out, "counters", counter_delta(c0, c1));
    emit_infeasible(out, reports, plans.size());
    emit_digests(out, "digests", d);
    out.end_object();
    std::cerr << "[paper_grid] pass " << pass << (traced ? " (traced)" : "")
              << ": " << wall << " s wall, " << cpu << " s cpu\n";
  }
  out.end_array();
  out.kv("setup_s", setup_s);
}

void run_paper_campaign(const Options& opt, JsonWriter& out, Ledger& ledger) {
  emit_knobs(out, opt);
  const std::string root = "campaign";
  fs::remove_all(root);
  fs::create_directories(root);

  // Set-up: spec and plan expansion, as for paper_grid (the service
  // expands the same plans when it runs).  The service runs sweeps in spec
  // order, so the spec's sweeps are permuted.
  const auto ordered_spec = [&] {
    auto spec = grid_spec(opt);
    const auto order = sweep_order(opt, spec.sweeps.size());
    std::vector<campaign::SweepSpec> sweeps;
    for (const std::size_t i : order) sweeps.push_back(spec.sweeps[i]);
    spec.sweeps = std::move(sweeps);
    return spec;
  };
  campaign::CampaignSpec spec;
  std::vector<campaign::SweepPlan> plans;
  const auto setup_s = setup_samples([] {}, [&] {
    spec = ordered_spec();
    plans = grid_plans(spec);
  }, kSetupSampleS);
  emit_report_instances(out, spec, plans);
  std::size_t instances = 0;
  for (const auto& p : plans) instances += p.instance_count();

  Digests first;
  Schedule schedule(opt);
  bool traced = false;
  out.key("passes");
  out.begin_array();
  for (std::size_t pass = 0; schedule.next(traced); ++pass) {
    const std::string dir = root + "/c" + std::to_string(pass);
    const std::string trace_file = trace_path(pass);
    campaign::ServiceOptions so;
    so.threads = opt.threads;  // single worker, no leases

    const auto c0 = counters();
    if (traced) trace_begin();
    const double cpu0 = cpu_s();
    const double t0 = now_s();
    campaign::CampaignService svc(spec, dir);  // a fresh directory
    const double t1 = now_s();
    const auto summary = svc.run(so);
    const double run_s = now_s() - t1;
    const double t2 = now_s();
    const auto paths = svc.merge(dir + "/merged");
    const double merge_s = now_s() - t2;
    const double wall = now_s() - t0;
    const double cpu = cpu_s() - cpu0;
    if (traced) trace_end(trace_file);
    const auto c1 = counters();

    Digests d;
    for (const auto& p : paths) {
      std::string name = fs::path(p).stem().string();  // BENCH_<name>
      d.emplace_back(name.substr(6), digest(read_file(p)));
    }
    ledger.attempted += instances;
    if (!summary.complete || summary.shards_executed != summary.shards_total) {
      ledger.fail("campaign pass " + std::to_string(pass) + " ran " +
                  std::to_string(summary.shards_executed) + " of " +
                  std::to_string(summary.shards_total) + " shards");
    }
    if (pass == 0) first = d;
    check_repeat(first, d, pass, ledger);

    out.begin_object();
    out.kv("traced", traced);
    out.kv("wall_s", wall);
    out.kv("cpu_s", cpu);
    out.kv("run_s", run_s);
    out.kv("merge_s", merge_s);
    out.kv("ops", summary.shards_executed);
    out.kv("instances", instances);
    if (traced) out.kv("trace", trace_file);
    emit_counters(out, "counters", counter_delta(c0, c1));
    emit_infeasible(out, svc.merged_reports(), plans.size());
    emit_digests(out, "digests", d);
    out.end_object();
    std::cerr << "[paper_campaign] pass " << pass << (traced ? " (traced)" : "")
              << ": " << summary.shards_executed << " shards, run " << run_s
              << " s, merge " << merge_s << " s\n";
    fs::remove_all(dir);
  }
  out.end_array();
  out.kv("setup_s", setup_s);

  if (opt.oneshot) {
    // No digests are recorded for these knobs: the merged bytes must equal
    // what the one-shot path produces.
    std::vector<double> sweep_wall;
    const auto reports = run_grid_once(spec, plans, sweep_order(opt, plans.size()),
                                       opt.threads, sweep_wall);
    emit_digests(out, "oneshot_digests", digests_of(reports));
  }
  fs::remove_all(root);
}

}  // namespace spgbench
