// One-shot reproduction driver: regenerates Figures 8-13 and Tables 1-3 in
// a single invocation.  The grid of work is the built-in "paper" campaign
// spec (campaign::CampaignSpec::paper — the same spec `spgcmp_campaign
// run --spec=paper` executes shard by shard); this binary feeds every
// sweep to one harness::run_pipeline as a batch, so workers move on to the
// next sweep while a sweep's last instances finish, renders each sweep
// with sweep_report as it completes (in spec order), and derives Tables 2
// and 3 from those reports with table_reports.  Output (console tables and
// BENCH_*.json files) is byte-identical at any --threads value and to a
// merged campaign over the same spec.
//
// To reproduce a single figure, write a campaign spec holding just that
// [sweep] (see src/campaign/spec.hpp) and run `spgcmp_campaign run
// --spec=FILE --dir=DIR`, then `spgcmp_campaign merge --dir=DIR`.
//
// Flags (CLI > REPRO_* env > default):
//   --threads=N   sweep threads (0 = hardware concurrency)  [REPRO_THREADS]
//   --apps=N      workloads per point, n=50 figures          [REPRO_APPS]
//   --apps150=N   workloads per point, n=150 figures         [REPRO_APPS150]
//   --step=N      elevation step, n=50 figures               [REPRO_STEP]
//   --step150=N   elevation step, n=150 figures              [REPRO_STEP150]
//   --out=DIR     directory for BENCH_*.json ("" disables)   [REPRO_OUT]
//   --topology=T  mesh|snake|torus|hetero platform fabric    [REPRO_TOPOLOGY]
//   --heuristics=L  solver subset, e.g. random,dpa2d1d,exact(cap=9)
//                 (registry spec strings; default: the paper's five)
//                                                            [REPRO_HEURISTICS]
//   --trace=FILE / --metrics=FILE  Chrome trace / metrics snapshot
//                                                 [REPRO_TRACE/REPRO_METRICS]
//
// Exit codes follow the tools' contract (tools/tool_common.hpp): 2 with the
// registry listing for an unknown solver, 2 for an unknown topology or
// flag, 1 for anything else (I/O, malformed numbers).
//
// Paper-exact replication: --apps=100 --apps150=100 --step=1 --step150=1.

#include <iostream>
#include <string>
#include <vector>

#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "harness/sweep_engine.hpp"
#include "obs/obs.hpp"
#include "spg/streamit.hpp"
#include "tool_common.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace spgcmp;

/// N of a report named like "fig10_random_n50_4x4" (prefix "fig") or
/// "table2_failures" (prefix "table").
int report_number(const std::string& name, std::size_t prefix) {
  return std::stoi(name.substr(prefix));
}

/// Table 1: the StreamIt workflow characteristics (static, no campaign).
void print_table1(std::ostream& os) {
  util::Table t({"index", "name", "n", "ymax", "xmax", "CCR", "edges",
                 "total work (cycles)"});
  for (const auto& info : spg::streamit_table()) {
    const spg::Spg g = spg::make_streamit(info);
    t.add_row({std::to_string(info.index), info.name, std::to_string(g.size()),
               std::to_string(g.ymax()), std::to_string(g.xmax()),
               util::fmt_double(g.ccr(), 4), std::to_string(g.edge_count()),
               util::fmt_sci(g.total_work(), 2)});
  }
  t.print(os);
}

/// A StreamIt report in the layout of Figures 8/9: one table per CCR.
void print_streamit_report(const harness::BenchReport& rep, std::ostream& os) {
  const auto& names = rep.heuristics;
  const std::size_t apps = spg::streamit_table().size();
  std::size_t k = 0;
  for (const auto& [label, ccr] : campaign::streamit_ccrs()) {
    os << "\n-- CCR = " << label << " --\n";
    std::vector<std::string> header = {"app", "name", "T (s)"};
    header.insert(header.end(), names.begin(), names.end());
    util::Table t(header);
    for (std::size_t a = 0; a < apps; ++a) {
      const auto& cell = rep.cells[k++];
      std::vector<std::string> row = {cell.labels[2].second, cell.labels[1].second,
                                      util::fmt_double(cell.period, 3)};
      for (std::size_t h = 0; h < names.size(); ++h) {
        row.push_back(cell.failures[h] == 0 ? util::fmt_double(cell.values[h], 4)
                                            : "fail");
      }
      t.add_row(std::move(row));
    }
    t.print(os);
  }
}

/// A random report in the layout of Figures 10-13: one table per CCR.
void print_random_report(const harness::BenchReport& rep,
                         const campaign::SweepSpec& sweep, std::ostream& os) {
  const auto& names = rep.heuristics;
  std::size_t k = 0;
  for (const double ccr : campaign::random_ccrs()) {
    os << "\n-- n = " << sweep.n << ", " << sweep.rows << "x" << sweep.cols
       << " grid, CCR = " << ccr
       << " (mean normalized 1/E; higher is better, 0 = always failed) --\n";
    std::vector<std::string> header = {"elevation"};
    header.insert(header.end(), names.begin(), names.end());
    util::Table t(header);
    for (std::size_t e = 0; e < sweep.elevations.size(); ++e) {
      const auto& cell = rep.cells[k++];
      std::vector<std::string> row = {cell.labels[1].second};
      for (std::size_t h = 0; h < names.size(); ++h) {
        row.push_back(util::fmt_double(cell.values[h], 3));
      }
      t.add_row(std::move(row));
    }
    t.print(os);
  }
}

/// A derived failure table (Table 2 or 3) with its heading.
void print_failure_table(const campaign::CampaignSpec& spec,
                         const campaign::TableSpec& table,
                         const harness::BenchReport& rep, std::ostream& os) {
  os << "\n== Table " << report_number(table.name, 5) << ": failures out of ";
  std::string key = table.key_column;
  if (table.kind == campaign::TableKind::StreamitFailures) {
    os << campaign::streamit_ccrs().size() * spg::streamit_table().size()
       << " StreamIt instances per grid ==\n";
  } else {
    const campaign::SweepSpec& src = *spec.find_sweep(table.from.front());
    os << src.apps * src.elevations.size() << " random instances per CCR (n="
       << src.n << ", " << src.rows << "x" << src.cols << " CMP) ==\n";
    key = "CCR";  // the figures' spelling; the JSON label stays "ccr"
  }
  std::vector<std::string> header = {key};
  header.insert(header.end(), rep.heuristics.begin(), rep.heuristics.end());
  util::Table t(header);
  for (const auto& cell : rep.cells) {
    std::vector<std::string> row = {cell.labels[0].second};
    for (const auto v : cell.failures) row.push_back(std::to_string(v));
    t.add_row(std::move(row));
  }
  t.print(os);
}

int run(const util::Args& args) {
  const auto obs_files = obs::ScopedFiles::from_args(args);
  const auto threads =
      static_cast<std::size_t>(args.get_int("threads", "REPRO_THREADS", 0));
  const auto apps = static_cast<std::size_t>(args.get_int("apps", "REPRO_APPS", 5));
  const auto apps150 =
      static_cast<std::size_t>(args.get_int("apps150", "REPRO_APPS150", 3));
  const int step = static_cast<int>(args.get_int("step", "REPRO_STEP", 3));
  const int step150 = static_cast<int>(args.get_int("step150", "REPRO_STEP150", 5));
  const std::string out = args.get_string("out", "REPRO_OUT", ".");
  const std::string topology = args.get_string("topology", "REPRO_TOPOLOGY", "mesh");
  const std::string csv = args.get_string("heuristics", "REPRO_HEURISTICS", "");

  // The whole run is one declarative campaign; this driver only schedules
  // it in-process and renders the console tables.
  auto spec = campaign::CampaignSpec::paper(apps, apps150, step, step150, topology);
  if (!csv.empty()) {
    const auto solvers = solve::SolverSet::parse(csv).specs();
    for (auto& sweep : spec.sweeps) sweep.solvers = solvers;
  }
  // Expand every plan before printing anything: an unknown topology fails
  // here, not after the first tables.
  std::vector<campaign::SweepPlan> plans;
  plans.reserve(spec.sweeps.size());
  for (const auto& sweep : spec.sweeps) plans.emplace_back(sweep, topology);

  std::ostream& os = std::cout;
  const auto write_json = [&](const harness::BenchReport& rep) {
    if (!out.empty()) os << "[json] " << rep.write_json_file(out) << "\n";
  };
  os << "spgcmp reproduction run: Figures 8-13, Tables 1-3\n";
  if (topology != "mesh") os << "platform topology: " << topology << "\n";

  os << "\n== Table 1: characteristics of the StreamIt workflows ==\n";
  print_table1(os);

  // One batch per sweep; each finished sweep prints in spec order.
  std::vector<harness::BenchReport> reports;
  reports.reserve(plans.size());
  std::vector<harness::Batch> batches;
  batches.reserve(plans.size());
  for (const auto& plan : plans) {
    batches.push_back(plan.batch(
        0, plan.instance_count(), [&](std::vector<campaign::InstanceResult> results) {
          const campaign::SweepSpec& sweep = plan.spec();
          os << "\n== Figure " << report_number(sweep.name, 3);
          if (sweep.kind == campaign::SweepKind::Streamit) {
            os << ": normalized energy, StreamIt suite, " << sweep.rows << "x"
               << sweep.cols << " CMP ==\n";
          } else {
            os << ": random SPGs, n=" << sweep.n << ", " << sweep.rows << "x"
               << sweep.cols << " CMP (" << sweep.apps << " workloads per point) ==\n";
          }
          reports.push_back(campaign::sweep_report(sweep, topology, results));
          if (sweep.kind == campaign::SweepKind::Streamit) {
            print_streamit_report(reports.back(), os);
          } else {
            print_random_report(reports.back(), sweep, os);
          }
          write_json(reports.back());
        }));
  }
  harness::run_pipeline(std::move(batches), threads);

  const auto tables = campaign::table_reports(spec, reports);
  for (std::size_t i = 0; i < tables.size(); ++i) {
    print_failure_table(spec, spec.tables[i], tables[i], os);
    write_json(tables[i]);
  }

  os << "\ndone.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return tools::run_tool("bench_run_all", [&] {
    return run(util::Args(argc, argv,
                          {"threads", "apps", "apps150", "step", "step150", "out",
                           "topology", "heuristics", "trace", "metrics"}));
  });
}
