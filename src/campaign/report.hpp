#pragma once

// BENCH report construction from sweep results.
//
// The single place where instance results become BENCH_<name>.json
// documents: both the one-shot bench_run_all and the campaign service's
// merge step call these functions, so an interrupted-and-resumed campaign
// merges to byte-identical bytes of what bench_run_all writes in one go.
// Cell layout, labels and normalization mirror the figures of Section 6.2:
// Figures 8/9 carry one cell per (CCR, application) with E/Emin values,
// Figures 10-13 one cell per (CCR, elevation) with mean normalized 1/E
// over the point's workloads, aggregated in instance order.

#include <vector>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"
#include "harness/sweep_engine.hpp"

namespace spgcmp::campaign {

/// Build a sweep's BENCH report from its complete instance results
/// (`results.size()` must equal the plan's instance count).
[[nodiscard]] harness::BenchReport sweep_report(
    const SweepSpec& spec, const std::string& topology,
    const std::vector<InstanceResult>& results);

/// Build a derived failure table from the finished source sweep reports
/// (`sources[i]` is the report of `spec.from[i]`; `source_specs` the
/// matching sweep specs, needed for cell-grid geometry).
[[nodiscard]] harness::BenchReport table_report(
    const TableSpec& spec, const std::vector<const harness::BenchReport*>& sources,
    const std::vector<const SweepSpec*>& source_specs);

/// Every derived table of `spec`, in spec order, from the finished sweep
/// reports (`sweep_reports[i]` is the report of `spec.sweeps[i]`).
[[nodiscard]] std::vector<harness::BenchReport> table_reports(
    const CampaignSpec& spec, const std::vector<harness::BenchReport>& sweep_reports);

}  // namespace spgcmp::campaign
