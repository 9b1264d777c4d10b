#include "campaign/report.hpp"

#include <stdexcept>
#include <string>

#include "spg/streamit.hpp"
#include "util/table.hpp"

namespace spgcmp::campaign {

namespace {

/// Tag a report with its non-default topology.  The default mesh adds no
/// meta entry, keeping mesh outputs byte-identical across versions.
void tag_topology(harness::BenchReport& rep, const std::string& topology) {
  if (topology != "mesh") rep.meta.emplace_back("topology", topology);
}

harness::BenchReport streamit_sweep_report(
    const SweepSpec& spec, const std::string& topology,
    const std::vector<InstanceResult>& results) {
  harness::BenchReport rep;
  rep.name = spec.name;
  rep.metric = "normalized_energy";
  rep.meta = {{"suite", "streamit"},
              {"grid", std::to_string(spec.rows) + "x" + std::to_string(spec.cols)}};
  tag_topology(rep, topology);
  rep.heuristics = sweep_solver_names(spec);
  std::size_t k = 0;
  for (const auto& [label, ccr] : streamit_ccrs()) {
    for (const auto& info : spg::streamit_table()) {
      const InstanceResult& r = results[k++];
      harness::BenchCell cell;
      cell.labels = {{"ccr", label},
                     {"app", info.name},
                     {"app_index", std::to_string(info.index)}};
      cell.period = r.period;
      cell.workloads = 1;
      cell.values.reserve(r.energy.size());
      cell.failures.reserve(r.energy.size());
      for (std::size_t h = 0; h < r.energy.size(); ++h) {
        cell.values.push_back(r.normalized_energy(h));
        cell.failures.push_back(r.success[h] ? 0 : 1);
      }
      rep.cells.push_back(std::move(cell));
    }
  }
  return rep;
}

harness::BenchReport random_sweep_report(
    const SweepSpec& spec, const std::string& topology,
    const std::vector<InstanceResult>& results) {
  harness::BenchReport rep;
  rep.name = spec.name;
  rep.metric = "mean_inverse_energy";
  rep.meta = {{"suite", "random"},
              {"n", std::to_string(spec.n)},
              {"grid", std::to_string(spec.rows) + "x" + std::to_string(spec.cols)},
              {"apps", std::to_string(spec.apps)},
              {"seed_base", std::to_string(spec.seed_base)}};
  tag_topology(rep, topology);
  rep.heuristics = sweep_solver_names(spec);
  std::size_t k = 0;
  for (const double ccr : random_ccrs()) {
    for (const int y : spec.elevations) {
      harness::BenchCell cell;
      cell.labels = {{"ccr", util::fmt_double(ccr, 3)},
                     {"elevation", std::to_string(y)}};
      cell.period = 0.0;
      cell.workloads = spec.apps;
      // Mean normalized 1/E over the point's instances, summed in instance
      // order, so merged campaigns match one-shot runs bit for bit.
      if (spec.apps > 0) {
        const std::size_t H = results[k].energy.size();
        cell.values.assign(H, 0.0);
        cell.failures.assign(H, 0);
        for (std::size_t w = 0; w < spec.apps; ++w) {
          const InstanceResult& r = results[k + w];
          for (std::size_t h = 0; h < H; ++h) {
            if (r.success[h]) {
              cell.values[h] += r.normalized_inverse_energy(h);
            } else {
              ++cell.failures[h];
            }
          }
        }
        for (std::size_t h = 0; h < H; ++h) {
          cell.values[h] /= static_cast<double>(spec.apps);
        }
        k += spec.apps;
      }
      // apps == 0 yields an empty aggregate; keep cells full-width so the
      // printers and JSON stay well-formed.
      cell.values.resize(rep.heuristics.size(), 0.0);
      cell.failures.resize(rep.heuristics.size(), 0);
      rep.cells.push_back(std::move(cell));
    }
  }
  return rep;
}

/// Per-heuristic failure totals of a streamit report (its Table 2 row).
std::vector<std::size_t> streamit_failure_totals(const harness::BenchReport& report) {
  std::vector<std::size_t> totals(report.heuristics.size(), 0);
  for (const auto& cell : report.cells) {
    for (std::size_t h = 0; h < totals.size(); ++h) totals[h] += cell.failures[h];
  }
  return totals;
}

/// Per-CCR failure totals of a random report (the rows of Table 3), in
/// random_ccrs() order.
std::vector<std::vector<std::size_t>> random_failures_by_ccr(
    const harness::BenchReport& report, std::size_t elevation_count) {
  std::vector<std::vector<std::size_t>> by_ccr;
  std::size_t k = 0;
  for (std::size_t c = 0; c < random_ccrs().size(); ++c) {
    std::vector<std::size_t> totals(report.heuristics.size(), 0);
    for (std::size_t e = 0; e < elevation_count; ++e) {
      const auto& cell = report.cells[k++];
      for (std::size_t h = 0; h < totals.size(); ++h) totals[h] += cell.failures[h];
    }
    by_ccr.push_back(std::move(totals));
  }
  return by_ccr;
}

}  // namespace

harness::BenchReport sweep_report(const SweepSpec& spec,
                                  const std::string& topology,
                                  const std::vector<InstanceResult>& results) {
  const std::size_t expected =
      spec.kind == SweepKind::Streamit
          ? streamit_ccrs().size() * spg::streamit_table().size()
          : random_ccrs().size() * spec.elevations.size() * spec.apps;
  if (results.size() != expected) {
    throw std::invalid_argument("sweep '" + spec.name + "': have " +
                                std::to_string(results.size()) + " of " +
                                std::to_string(expected) + " instance results");
  }
  return spec.kind == SweepKind::Streamit
             ? streamit_sweep_report(spec, topology, results)
             : random_sweep_report(spec, topology, results);
}

harness::BenchReport table_report(
    const TableSpec& spec, const std::vector<const harness::BenchReport*>& sources,
    const std::vector<const SweepSpec*>& source_specs) {
  if (sources.size() != spec.from.size() || source_specs.size() != spec.from.size()) {
    throw std::invalid_argument("table '" + spec.name +
                                "': source count mismatch");
  }
  harness::BenchReport rep;
  rep.name = spec.name;
  rep.metric = "failures";
  // Failure columns are per solver, so every source sweep must run the
  // same solver line-up for the rows to be comparable.
  rep.heuristics = sweep_solver_names(*source_specs[0]);
  for (std::size_t i = 1; i < source_specs.size(); ++i) {
    if (sweep_solver_names(*source_specs[i]) != rep.heuristics) {
      throw std::invalid_argument("table '" + spec.name + "': source sweep '" +
                                  source_specs[i]->name +
                                  "' runs a different solver set than '" +
                                  source_specs[0]->name + "'");
    }
  }

  std::vector<std::string> labels;
  std::vector<std::vector<std::size_t>> rows;
  if (spec.kind == TableKind::StreamitFailures) {
    labels = spec.labels;
    for (const auto* src : sources) rows.push_back(streamit_failure_totals(*src));
  } else {
    rows = random_failures_by_ccr(*sources[0],
                                  source_specs[0]->elevations.size());
    for (const double ccr : random_ccrs()) {
      labels.push_back(util::fmt_double(ccr, 3));
    }
  }
  for (std::size_t r = 0; r < rows.size(); ++r) {
    harness::BenchCell cell;
    cell.labels = {{spec.key_column, labels[r]}};
    cell.failures = rows[r];
    rep.cells.push_back(std::move(cell));
  }
  return rep;
}

std::vector<harness::BenchReport> table_reports(
    const CampaignSpec& spec, const std::vector<harness::BenchReport>& sweep_reports) {
  if (sweep_reports.size() != spec.sweeps.size()) {
    throw std::invalid_argument("campaign '" + spec.name + "': have " +
                                std::to_string(sweep_reports.size()) + " of " +
                                std::to_string(spec.sweeps.size()) +
                                " sweep reports");
  }
  std::vector<harness::BenchReport> tables;
  tables.reserve(spec.tables.size());
  for (const auto& t : spec.tables) {
    std::vector<const harness::BenchReport*> sources;
    std::vector<const SweepSpec*> source_specs;
    for (const auto& src : t.from) {
      for (std::size_t i = 0; i < spec.sweeps.size(); ++i) {
        if (spec.sweeps[i].name == src) {
          sources.push_back(&sweep_reports[i]);
          source_specs.push_back(&spec.sweeps[i]);
        }
      }
    }
    tables.push_back(table_report(t, sources, source_specs));
  }
  return tables;
}

}  // namespace spgcmp::campaign
