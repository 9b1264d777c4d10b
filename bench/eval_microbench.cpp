// Evaluator throughput microbenchmark: full re-evaluation of a single-stage
// move (reroute + downgrade + evaluate, the pre-Evaluator refine inner
// loop) versus the incremental evaluate_move protocol, on random SPGs of
// n = 50 and n = 150 over 4x4 and 6x6 meshes.
//
// Both sides score the *same* deterministic probe sequence against the same
// bound mapping, so the reported speedup is the wall-time ratio of
// identical work.  The first probes are also cross-checked (energy within
// 1e-9 relative, validity bit-equal); any disagreement fails the run.
//
// A "trace_overhead" scenario times the incremental probe loop plain
// versus wrapped in a (disabled) obs::Span per probe, each side the fastest
// of five rounds that alternate which loop goes first; CI gates its
// overhead_ratio at <= 1.02, keeping the tracing layer honest about its
// off-path cost.
//
// BENCH_eval.json additionally carries one "solver" cell per registry
// solver — the SolveReport wall time, evaluator call count and fast-path
// share of a single n=50 / 4x4 solve — giving perf work a per-solver
// trajectory across commits for free.
//
// Flags: --moves=N probe count per scenario (default 2000)   [REPRO_MOVES]
//        --seed=S  workload seed (default 42)
//        --json=DIR  BENCH_eval.json directory (default ".") [REPRO_JSON]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <utility>
#include <vector>

#include "harness/sweep_engine.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "mapping/evaluator.hpp"
#include "serve/cache.hpp"
#include "serve/engine.hpp"
#include "solve/solve.hpp"
#include "spg/generator.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spgcmp;
using Clock = std::chrono::steady_clock;

struct Scenario {
  std::size_t n;
  int rows, cols;
};

struct Probe {
  spg::StageId stage;
  int core;
};

/// A valid mapping + period for the scenario: the first paper heuristic
/// that succeeds, at the smallest power-of-two relaxation of the ablation
/// period estimate.
struct SeedMapping {
  mapping::Mapping m;
  double T = 0.0;
};

SeedMapping find_seed(const spg::Spg& g, const cmp::Platform& p) {
  double T = g.total_work() / (0.5 * p.grid().core_count() * 0.6e9);
  const auto hs = solve::SolverSet::paper().instantiate();
  for (int relax = 0; relax < 24; ++relax, T *= 2.0) {
    for (const auto& h : hs) {
      auto r = h->run(g, p, T);
      if (r.success) return SeedMapping{std::move(r.mapping), T};
    }
  }
  throw std::runtime_error("eval_microbench: no valid seed mapping found");
}

double us_per_op(Clock::duration d, std::size_t ops) {
  return std::chrono::duration<double, std::micro>(d).count() /
         static_cast<double>(ops);
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Args args(argc, argv, {"moves", "seed", "json", "trace", "metrics"});
  const auto obs = obs::ScopedFiles::from_args(args);
  const auto moves =
      static_cast<std::size_t>(args.get_int("moves", "REPRO_MOVES", 2000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", "", 42));
  const std::string json = args.get_string("json", "REPRO_JSON", ".");

  const std::vector<Scenario> scenarios = {
      {50, 4, 4}, {50, 6, 6}, {150, 4, 4}, {150, 6, 6}};

  harness::BenchReport rep;
  rep.name = "eval";
  rep.metric = "evaluator_microbench";
  rep.meta = {{"moves", std::to_string(moves)}, {"seed", std::to_string(seed)}};
  rep.heuristics = {"full_us_per_eval", "incremental_us_per_eval", "speedup"};

  util::Table table({"n", "grid", "full (us)", "incremental (us)", "speedup"});
  double sink = 0.0;  // keep the timed loops observable
  for (const auto& sc : scenarios) {
    util::Rng rng(harness::instance_seed(seed, sc.n * 100 +
                                                   static_cast<std::size_t>(sc.rows)));
    spg::Spg g = spg::random_spg(sc.n, 6, rng);
    g.rescale_ccr(1.0);
    const auto p = cmp::Platform::reference(sc.rows, sc.cols);
    const auto seeded = find_seed(g, p);
    const double T = seeded.T;

    // Deterministic probe sequence over (stage, target core).
    std::vector<Probe> probes;
    probes.reserve(moves);
    std::vector<int> home = seeded.m.core_of;
    while (probes.size() < moves) {
      const auto s = static_cast<spg::StageId>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.size()) - 1));
      const int c = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(p.grid().core_count()) - 1));
      if (c == home[s]) continue;
      probes.push_back(Probe{s, c});
    }

    // Cross-check: the incremental score of a probe must match a fresh full
    // evaluation of the moved mapping.
    {
      mapping::Evaluator checker(g, p, T);
      mapping::Mapping bound = seeded.m;
      mapping::attach_routes(g, p.topology, bound);
      if (!mapping::assign_slowest_modes(g, p, T, bound)) {
        throw std::runtime_error("eval_microbench: seed lost feasibility");
      }
      checker.bind(bound);
      const std::size_t checks = std::min<std::size_t>(probes.size(), 64);
      for (std::size_t i = 0; i < checks; ++i) {
        const auto& inc = checker.evaluate_move(probes[i].stage, probes[i].core);
        const bool inc_valid = inc.valid();
        const double inc_energy = inc.energy;
        mapping::Mapping cand = bound;
        cand.core_of[probes[i].stage] = probes[i].core;
        mapping::attach_routes(g, p.topology, cand);
        const bool modes_ok = mapping::assign_slowest_modes(g, p, T, cand);
        const auto full = mapping::evaluate(g, p, cand, T);
        const bool full_valid = modes_ok && full.valid();
        const double tol = 1e-9 * std::max(1.0, std::abs(full.energy));
        if (inc_valid != full_valid ||
            (inc_valid && std::abs(inc_energy - full.energy) > tol)) {
          std::fprintf(stderr,
                       "MISMATCH n=%zu %dx%d probe %zu: inc (%d, %.17g) vs "
                       "full (%d, %.17g)\n",
                       sc.n, sc.rows, sc.cols, i, inc_valid, inc_energy,
                       full_valid, full.energy);
          return 1;
        }
      }
    }

    // Timed: full re-evaluation per probe (reroute everything, re-downgrade
    // every core, evaluate from scratch through the one-shot shim).
    mapping::Mapping bound = seeded.m;
    mapping::attach_routes(g, p.topology, bound);
    (void)mapping::assign_slowest_modes(g, p, T, bound);
    const auto t0 = Clock::now();
    for (const auto& pr : probes) {
      mapping::Mapping cand = bound;
      cand.core_of[pr.stage] = pr.core;
      mapping::attach_routes(g, p.topology, cand);
      if (!mapping::assign_slowest_modes(g, p, T, cand)) continue;
      sink += mapping::evaluate(g, p, cand, T).energy;
    }
    const auto full_dt = Clock::now() - t0;

    // Timed: incremental probes against the bound state.
    mapping::Evaluator evaluator(g, p, T);
    evaluator.bind(bound);
    const auto t1 = Clock::now();
    for (const auto& pr : probes) {
      sink += evaluator.evaluate_move(pr.stage, pr.core).energy;
    }
    const auto inc_dt = Clock::now() - t1;

    const double full_us = us_per_op(full_dt, probes.size());
    const double inc_us = us_per_op(inc_dt, probes.size());
    const double speedup = inc_us > 0.0 ? full_us / inc_us : 0.0;

    const std::string grid =
        std::to_string(sc.rows) + "x" + std::to_string(sc.cols);
    table.add_row({std::to_string(sc.n), grid, util::fmt_double(full_us, 3),
                   util::fmt_double(inc_us, 3), util::fmt_double(speedup, 2)});
    harness::BenchCell cell;
    cell.labels = {{"n", std::to_string(sc.n)}, {"grid", grid}};
    cell.period = T;
    cell.values = {full_us, inc_us, speedup};
    cell.failures = {0, 0, 0};
    cell.workloads = probes.size();
    rep.cells.push_back(std::move(cell));
  }

  // Disabled-tracing overhead: the incremental evaluate_move probe loop on
  // the n=150 / 6x6 scenario, plain versus wrapped in a per-probe
  // obs::Span while tracing is off.  The span must cost one relaxed atomic
  // load plus a branch; CI gates overhead_ratio at <= 1.02.
  util::Table trace_table(
      {"scenario", "plain (us)", "spanned (us)", "overhead"});
  {
    rep.meta.emplace_back("trace_overhead_cells",
                          "plain_us, spanned_us, overhead_ratio");
    util::Rng rng(harness::instance_seed(seed, 150 * 100 + 6));
    spg::Spg g = spg::random_spg(150, 6, rng);
    g.rescale_ccr(1.0);
    const auto p = cmp::Platform::reference(6, 6);
    const auto seeded = find_seed(g, p);
    const double T = seeded.T;

    std::vector<Probe> probes;
    probes.reserve(moves);
    const std::vector<int>& home = seeded.m.core_of;
    while (probes.size() < moves) {
      const auto s = static_cast<spg::StageId>(
          rng.uniform_int(0, static_cast<std::int64_t>(g.size()) - 1));
      const int c = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(p.grid().core_count()) - 1));
      if (c == home[s]) continue;
      probes.push_back(Probe{s, c});
    }

    mapping::Mapping bound = seeded.m;
    mapping::attach_routes(g, p.topology, bound);
    (void)mapping::assign_slowest_modes(g, p, T, bound);
    mapping::Evaluator evaluator(g, p, T);
    evaluator.bind(bound);
    if (obs::trace_enabled()) {
      std::fprintf(stderr,
                   "trace_overhead: skipped (tracing is live; the cell "
                   "measures the disabled path)\n");
    } else {
      const auto plain = [&] {
        const auto t0 = Clock::now();
        for (const auto& pr : probes) {
          sink += evaluator.evaluate_move(pr.stage, pr.core).energy;
        }
        return Clock::now() - t0;
      };
      const auto spanned = [&] {
        const auto t0 = Clock::now();
        for (const auto& pr : probes) {
          const obs::Span span("bench.probe");
          sink += evaluator.evaluate_move(pr.stage, pr.core).energy;
        }
        return Clock::now() - t0;
      };
      // Warm up once, then time five rounds that alternate which loop goes
      // first, so run order and warm-up fall on both sides alike; each side
      // keeps its fastest round.
      (void)plain();
      auto plain_dt = Clock::duration::max();
      auto spanned_dt = Clock::duration::max();
      for (int round = 0; round < 5; ++round) {
        if (round % 2 == 0) plain_dt = std::min(plain_dt, plain());
        spanned_dt = std::min(spanned_dt, spanned());
        if (round % 2 == 1) plain_dt = std::min(plain_dt, plain());
      }

      const double plain_us = us_per_op(plain_dt, probes.size());
      const double spanned_us = us_per_op(spanned_dt, probes.size());
      const double ratio = plain_us > 0.0 ? spanned_us / plain_us : 0.0;
      trace_table.add_row({"trace_overhead n=150 6x6",
                           util::fmt_double(plain_us, 3),
                           util::fmt_double(spanned_us, 3),
                           util::fmt_double(ratio, 4)});
      harness::BenchCell cell;
      cell.labels = {{"scenario", "trace_overhead"}, {"n", "150"}, {"grid", "6x6"}};
      cell.period = T;
      cell.values = {plain_us, spanned_us, ratio};
      cell.failures = {0, 0, 0};
      cell.workloads = probes.size();
      rep.cells.push_back(std::move(cell));
    }
  }

  // Per-solver SolveReport trajectories on the n=50 / 4x4 scenario: one
  // cell per registry solver with (wall_us, evaluator_calls,
  // incremental_hit_rate), so perf PRs can chart each solver's evaluator
  // traffic over time without re-instrumenting anything.
  util::Table solver_table(
      {"solver", "status", "wall (us)", "evaluator calls", "fast-path share"});
  {
    rep.meta.emplace_back("solver_cells",
                          "wall_us, evaluator_calls, incremental_hit_rate");
    util::Rng rng(harness::instance_seed(seed, 50 * 100 + 4));
    spg::Spg g = spg::random_spg(50, 6, rng);
    g.rescale_ccr(1.0);
    const auto p = cmp::Platform::reference(4, 4);
    solve::SolveRequest req;
    req.spg = &g;
    req.platform = &p;
    req.period = find_seed(g, p).T;
    req.seed = seed;
    for (const auto& name : solve::SolverRegistry::instance().names()) {
      const auto solved = solve::run(name, req);
      const double wall_us = solved.stats.wall_seconds * 1e6;
      const auto calls = static_cast<double>(solved.stats.evaluator_calls());
      const double hit = solved.stats.incremental_hit_rate();
      solver_table.add_row({name, solved.result.success ? "ok" : "fail",
                            util::fmt_double(wall_us, 1), util::fmt_double(calls, 0),
                            util::fmt_double(hit, 3)});
      harness::BenchCell cell;
      cell.labels = {{"scenario", "solver"}, {"solver", name}};
      cell.period = req.period;
      cell.values = {wall_us, calls, hit};
      cell.failures = {solved.result.success ? std::size_t{0} : std::size_t{1}, 0, 0};
      cell.workloads = 1;
      rep.cells.push_back(std::move(cell));
      if (solved.result.success) sink += solved.result.eval.energy;
    }
  }

  // Quality-vs-evals frontier: the two non-paper registry solvers against
  // the paper's best practical chain (dpa2d1d+refine) on the fig-10..13
  // random grids.  One cell per (grid, solver): energy relative to the
  // reference chain (<= 1 means matched-or-beat it), evaluator calls, and
  // wall time — the trade-off the DPA heuristics only sample.
  util::Table quality_table({"n", "grid", "solver", "status",
                             "energy vs dpa2d1d+refine", "evaluator calls",
                             "wall (us)"});
  {
    rep.meta.emplace_back("quality_cells",
                          "energy_vs_dpa2d1d_refine, evaluator_calls, wall_us");
    const char* ref_spec = "dpa2d1d+refine";
    const std::vector<std::string> contenders = {ref_spec, "anneal", "peft"};
    for (const auto& sc : scenarios) {
      util::Rng rng(harness::instance_seed(
          seed, sc.n * 100 + static_cast<std::size_t>(sc.rows)));
      spg::Spg g = spg::random_spg(sc.n, 6, rng);
      g.rescale_ccr(1.0);
      const auto p = cmp::Platform::reference(sc.rows, sc.cols);
      solve::SolveRequest req;
      req.spg = &g;
      req.platform = &p;
      req.period = find_seed(g, p).T;
      req.seed = seed;
      const auto ref = solve::run(ref_spec, req);
      const double ref_energy =
          ref.result.success ? ref.result.eval.energy : 0.0;
      const std::string grid =
          std::to_string(sc.rows) + "x" + std::to_string(sc.cols);
      for (const auto& solver : contenders) {
        // The reference row reuses the report already computed above — the
        // runs are deterministic, so re-solving would only double the cost.
        const solve::SolveReport& solved =
            solver == ref_spec ? ref : solve::run(solver, req);
        const bool ok = solved.result.success;
        const double vs_ref = (ok && ref_energy > 0.0)
                                  ? solved.result.eval.energy / ref_energy
                                  : 0.0;
        const auto calls = static_cast<double>(solved.stats.evaluator_calls());
        const double wall_us = solved.stats.wall_seconds * 1e6;
        quality_table.add_row({std::to_string(sc.n), grid, solver,
                               ok ? "ok" : "fail", util::fmt_double(vs_ref, 4),
                               util::fmt_double(calls, 0),
                               util::fmt_double(wall_us, 1)});
        harness::BenchCell cell;
        cell.labels = {{"scenario", "quality"},
                       {"n", std::to_string(sc.n)},
                       {"grid", grid},
                       {"solver", solver}};
        cell.period = req.period;
        cell.values = {vs_ref, calls, wall_us};
        cell.failures = {ok ? std::size_t{0} : std::size_t{1}, 0, 0};
        cell.workloads = 1;
        rep.cells.push_back(std::move(cell));
        if (ok) sink += solved.result.eval.energy;
      }
    }
  }

  // Serve-daemon memoization: one problem through serve::Engine three
  // times.  The frames carry per-request wall time, so cold-vs-hit cost
  // comes straight from the daemon's own accounting; a hit must cost zero
  // evaluator calls or the run fails like the evaluator cross-checks above.
  //   serve_cache            the same generator request again: a hit
  //                          recognised by its text (the alias path);
  //   serve_cache_canonical  the explicit-spg form of the same graph, whose
  //                          text is new: materialized, then a hit on its
  //                          compact key (the canonical path).
  util::Table serve_table({"scenario", "cold (us)", "hit (us)", "speedup"});
  {
    rep.meta.emplace_back("serve_cache_cells", "cold_us, hit_us, speedup");
    // Mirror the daemon's generator path to find a feasible period for the
    // exact instance the request will materialize; anneal's solve cost
    // dominates request parsing, so the hit's saving is visible.
    util::Rng rng(seed);
    spg::Spg g = spg::random_spg(50, 6, rng);
    g.rescale_ccr(1.0);
    const double T = find_seed(g, cmp::Platform::reference(4, 4)).T;
    std::ostringstream spg_text;
    g.serialize(spg_text);
    std::ostringstream generated, explicit_form;
    {
      util::JsonWriter w(generated, /*indent=*/-1);
      w.begin_object();
      w.key("generator");
      w.begin_object();
      w.kv("n", static_cast<std::int64_t>(50));
      w.kv("ymax", static_cast<std::int64_t>(6));
      w.kv("seed", static_cast<std::int64_t>(seed));
      w.kv("ccr", 1.0);
      w.end_object();
      w.kv("solver", "anneal");
      w.kv("period", T);
      w.end_object();
    }
    {
      util::JsonWriter w(explicit_form, /*indent=*/-1);
      w.begin_object();
      w.kv("spg", spg_text.str());
      w.kv("solver", "anneal");
      w.kv("period", T);
      w.end_object();
    }
    util::ThreadPool pool(1);
    serve::MemoCache cache(1024);
    serve::Engine engine(pool, cache, nullptr);
    serve::Engine::Result results[3];
    const std::string requests[3] = {generated.str(), generated.str(),
                                     explicit_form.str()};
    for (int i = 0; i < 3; ++i) {
      engine.submit(requests[i], /*log_line=*/false, nullptr,
                    [&r = results[i]](serve::Engine::Result done) {
                      r = std::move(done);
                    });
    }
    engine.wait_idle();
    const auto cold = util::parse_json(results[0].line);
    const double cold_us = cold.at("wall_us").as_number("wall_us");
    const char* scenarios[] = {"serve_cache", "serve_cache_canonical"};
    for (int i = 1; i < 3; ++i) {
      const auto hit = util::parse_json(results[i].line);
      if (results[i].kind != serve::ResponseKind::OkHit ||
          hit.at("request_evals").as_number("request_evals") != 0.0 ||
          hit.at("key").as_string("key") != cold.at("key").as_string("key")) {
        std::fprintf(stderr,
                     "MISMATCH %s: repeated problem was not a free cache "
                     "hit on the cold solve's key: %s\n",
                     scenarios[i - 1], results[i].line.c_str());
        return 1;
      }
      const double hit_us = hit.at("wall_us").as_number("wall_us");
      const double speedup = hit_us > 0.0 ? cold_us / hit_us : 0.0;
      serve_table.add_row({scenarios[i - 1], util::fmt_double(cold_us, 1),
                           util::fmt_double(hit_us, 1),
                           util::fmt_double(speedup, 1)});
      harness::BenchCell cell;
      cell.labels = {{"scenario", scenarios[i - 1]}, {"solver", "anneal"}};
      cell.period = T;
      cell.values = {cold_us, hit_us, speedup};
      cell.failures = {0, 0, 0};
      cell.workloads = 2;
      rep.cells.push_back(std::move(cell));
    }
  }

  std::cout << "Evaluator microbenchmark: full vs incremental re-evaluation ("
            << moves << " probes per scenario)\n";
  table.print(std::cout);
  std::cout << "\nDisabled-tracing overhead: evaluate_move probes, plain vs "
               "per-probe obs::Span\n";
  trace_table.print(std::cout);
  std::cout << "\nPer-solver SolveReport trajectories (n=50, 4x4 mesh)\n";
  solver_table.print(std::cout);
  std::cout << "\nQuality vs evals: anneal / peft against dpa2d1d+refine "
               "(fig-10..13 grids)\n";
  quality_table.print(std::cout);
  std::cout << "\nServe daemon memo cache: cold solve vs cache hit\n";
  serve_table.print(std::cout);
  if (!json.empty()) std::cout << "[json] " << rep.write_json_file(json) << "\n";
  if (!std::isfinite(sink)) std::cout << "";  // defeat dead-code elimination
  return 0;
} catch (const std::exception& e) {
  std::cerr << "eval_microbench: " << e.what() << "\n";
  return 2;
}
