// Tests for the spgcmp::solve subsystem: registry round-trips for every
// built-in, unknown-name / bad-option diagnostics (golden messages),
// option-bag parsing, '+' post-pass composition, SolverSet parsing, the
// SolveRequest/SolveReport stats contract, and a parity test pinning the
// registry-built paper set to the hand-constructed heuristic classes
// (byte-identical energies on a small grid).

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "harness/experiment.hpp"
#include "harness/sweep_engine.hpp"
#include "heuristics/dpa1d.hpp"
#include "heuristics/dpa2d.hpp"
#include "heuristics/greedy.hpp"
#include "heuristics/random_heuristic.hpp"
#include "solve/solve.hpp"
#include "spg/generator.hpp"
#include "support/fixtures.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace spgcmp;

spg::Spg small_workload(std::uint64_t seed = 11, std::size_t n = 10) {
  util::Rng rng(seed);
  spg::Spg g = spg::random_spg(n, 3, rng);
  g.rescale_ccr(1.0);
  return g;
}

// ---------------------------------------------------------------- names --

TEST(SolverRegistry, ListsAllBuiltinsInRegistrationOrder) {
  // Prefix match, not equality: built-ins register before anything else
  // can touch the process-wide registry, but a sibling test in this binary
  // legitimately appends an extension solver, and test order is not ours
  // to assume.
  const std::vector<std::string> expected = {
      "random", "greedy", "dpa2d", "dpa1d", "dpa2d1d",
      "exact",  "anneal", "peft",  "refine"};
  const auto names = solve::SolverRegistry::instance().names();
  ASSERT_GE(names.size(), expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), names.begin()));
}

TEST(SolverRegistry, EveryBuiltinIsConstructibleByNameWithDefaultOptions) {
  const auto& reg = solve::SolverRegistry::instance();
  for (const auto& name : reg.names()) {
    const auto solver = reg.make(name);
    ASSERT_NE(solver, nullptr) << name;
    EXPECT_FALSE(solver->name().empty()) << name;
  }
}

TEST(SolverRegistry, DisplayNameRoundTrip) {
  const auto& reg = solve::SolverRegistry::instance();
  EXPECT_EQ(reg.make("random")->name(), "Random");
  EXPECT_EQ(reg.make("greedy")->name(), "Greedy");
  EXPECT_EQ(reg.make("dpa2d")->name(), "DPA2D");
  EXPECT_EQ(reg.make("dpa1d")->name(), "DPA1D");
  EXPECT_EQ(reg.make("dpa2d1d")->name(), "DPA2D1D");
  EXPECT_EQ(reg.make("exact")->name(), "Exact");
  EXPECT_EQ(reg.make("anneal")->name(), "Anneal");
  EXPECT_EQ(reg.make("peft")->name(), "PEFT");
  EXPECT_EQ(reg.make("anneal+refine")->name(), "Anneal+refine");
  EXPECT_EQ(reg.make("peft+refine")->name(), "PEFT+refine");
  // refine standalone seeds from its base option (default greedy).
  EXPECT_EQ(reg.make("refine")->name(), "Greedy+refine");
  EXPECT_EQ(reg.make("refine(base=dpa2d)")->name(), "DPA2D+refine");
  EXPECT_EQ(reg.make("dpa2d1d+refine(rounds=2)")->name(), "DPA2D1D+refine");
}

TEST(SolverRegistry, DescribeListsEveryNameAndOption) {
  std::ostringstream os;
  solve::SolverRegistry::instance().describe(os);
  const std::string listing = os.str();
  for (const auto& name : solve::SolverRegistry::instance().names()) {
    EXPECT_NE(listing.find("  " + name), std::string::npos) << name;
    for (const auto& opt : solve::SolverRegistry::instance().info(name).options) {
      EXPECT_NE(listing.find(opt.name + "="), std::string::npos)
          << name << "." << opt.name;
    }
  }
}

// ---------------------------------------------------------- diagnostics --

/// Expect make(spec) to throw SolverError with exactly `message` (or, when
/// `prefix` is true, a message starting with it — used where the text ends
/// in the live registry listing, which sibling tests may extend).
void expect_solver_error(const std::string& spec, const std::string& message,
                         bool prefix = false) {
  try {
    (void)solve::SolverRegistry::instance().make(spec);
    FAIL() << "expected an error: " << message;
  } catch (const solve::SolverError& e) {
    if (prefix) {
      EXPECT_EQ(std::string(e.what()).substr(0, message.size()), message) << spec;
    } else {
      EXPECT_STREQ(e.what(), message.c_str()) << spec;
    }
  }
}

TEST(SolverRegistry, GoldenDiagnostics) {
  expect_solver_error("frobnicate",
                      "unknown solver 'frobnicate' (expected random, greedy, "
                      "dpa2d, dpa1d, dpa2d1d, exact, anneal, peft, refine",
                      /*prefix=*/true);
  expect_solver_error("exact(capx=9)",
                      "solver 'exact': unknown option 'capx' (expected cap, "
                      "cores, candidates, yx, dag)");
  expect_solver_error("exact(cap=banana)",
                      "solver 'exact': option 'cap': expected an integer, got "
                      "'banana'");
  expect_solver_error("exact(cap=0)",
                      "solver 'exact': option 'cap': value 0 out of range "
                      "[1, 64]");
  expect_solver_error("greedy(downgrade=maybe)",
                      "solver 'greedy': option 'downgrade': expected a boolean "
                      "(true/false/1/0/on/off), got 'maybe'");
  expect_solver_error("dpa2d(x=1)",
                      "solver 'dpa2d': unknown option 'x' (solver takes no "
                      "options)");
  expect_solver_error("random(trials=3,trials=4)",
                      "solver 'random': duplicate option 'trials'");
  expect_solver_error("random(trials)",
                      "solver 'random': option 'trials' is missing '=value'");
  expect_solver_error("exact(cap=9", "solver spec 'exact(cap=9': missing ')'");
  expect_solver_error("", "empty solver spec");
  expect_solver_error("greedy+dpa2d",
                      "solver 'dpa2d' is not a post-pass and cannot follow '+'");
  expect_solver_error("greedy+refine(base=dpa2d)",
                      "solver 'refine': option 'base' conflicts with '+' "
                      "composition");
}

TEST(SolverRegistry, GoldenDiagnosticsNumericHardening) {
  // Regression (numeric-parsing pass): stod used to accept non-finite and
  // hex spellings — a t0=nan temperature silently disables every annealing
  // acceptance comparison — and stoll/stod both took '+' signs that the
  // rest of the grammar never allowed.
  expect_solver_error("anneal(t0=nan)",
                      "solver 'anneal': option 't0': expected a finite "
                      "number, got 'nan'");
  expect_solver_error("anneal(t0=inf)",
                      "solver 'anneal': option 't0': expected a finite "
                      "number, got 'inf'");
  expect_solver_error("anneal(t0=0x1p-3)",
                      "solver 'anneal': option 't0': expected a finite "
                      "number, got '0x1p-3'");
  expect_solver_error("anneal(t0=+0.5)",
                      "solver 'anneal': option 't0': expected a finite "
                      "number, got '+0.5'");
  expect_solver_error("anneal(iters=+5)",
                      "solver 'anneal': option 'iters': expected an integer, "
                      "got '+5'");
  expect_solver_error("exact(cap=0x9)",
                      "solver 'exact': option 'cap': expected an integer, "
                      "got '0x9'");
  expect_solver_error("anneal(t0=0)",
                      "solver 'anneal': option 't0': value must be > 0");
  expect_solver_error("anneal(cooling=1.5)",
                      "solver 'anneal': option 'cooling': value must be in "
                      "(0, 1]");
  expect_solver_error("anneal(moves=fly)",
                      "solver 'anneal': option 'moves': expected a "
                      "'+'-separated mix of swap, migrate, got 'fly'");
}

// -------------------------------------------------------------- options --

TEST(SolverOptions, ParsesTypedValuesAndNestedParens) {
  const auto opts = solve::SolverOptions::parse(
      "t", " a = 1 , b = x(y=2,z=3) , c = 1.5 , d = on ");
  ASSERT_EQ(opts.entries().size(), 4u);
  EXPECT_EQ(opts.get_int("a", 0), 1);
  // Nested parens keep their commas: the whole spec is one value.
  EXPECT_EQ(opts.get_string("b", ""), "x(y=2,z=3)");
  EXPECT_EQ(opts.get_double("c", 0.0), 1.5);
  EXPECT_TRUE(opts.get_bool("d", false));
  EXPECT_FALSE(opts.has("e"));
  EXPECT_EQ(opts.get_int("e", 7), 7);
}

TEST(SolverOptions, SplitSolverListRespectsParenDepth) {
  const auto items =
      solve::split_solver_list("random, exact(cap=9,cores=4), greedy+refine");
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0], "random");
  EXPECT_EQ(items[1], "exact(cap=9,cores=4)");
  EXPECT_EQ(items[2], "greedy+refine");
}

// ------------------------------------------------------------ SolverSet --

TEST(SolverSet, ParseCapturesSpecsAndDisplayNames) {
  const auto set = solve::SolverSet::parse("dpa2d1d,exact(cap=9)");
  EXPECT_EQ(set.specs(), (std::vector<std::string>{"dpa2d1d", "exact(cap=9)"}));
  EXPECT_EQ(set.names(), (std::vector<std::string>{"DPA2D1D", "Exact"}));
  const auto solvers = set.instantiate();
  ASSERT_EQ(solvers.size(), 2u);
  EXPECT_EQ(solvers[0]->name(), "DPA2D1D");
}

TEST(SolverSet, PaperSetMatchesLegacyNames) {
  const auto set = solve::SolverSet::paper();
  EXPECT_EQ(set.names(), (std::vector<std::string>{"Random", "Greedy", "DPA2D",
                                                   "DPA1D", "DPA2D1D"}));
}

TEST(SolverSet, EmptyListIsAnError) {
  EXPECT_THROW((void)solve::SolverSet::parse(""), solve::SolverError);
  EXPECT_THROW((void)solve::SolverSet::parse(" , "), solve::SolverError);
}

// ---------------------------------------------------------------- parity --

TEST(SolverSet, RegistryPaperSetMatchesHandConstructedHeuristicsExactly) {
  // Pin the registry's paper set against directly-constructed classes: at
  // every period the search visits, the energies must be byte-identical,
  // not merely close.
  const spg::Spg g = small_workload();
  const auto p = cmp::Platform::reference(2, 2);

  std::vector<std::unique_ptr<heuristics::Heuristic>> by_hand;
  by_hand.push_back(std::make_unique<heuristics::RandomHeuristic>(42));
  by_hand.push_back(std::make_unique<heuristics::GreedyHeuristic>());
  by_hand.push_back(std::make_unique<heuristics::Dpa2dHeuristic>(
      heuristics::Dpa2dHeuristic::Mode::Grid2D));
  by_hand.push_back(std::make_unique<heuristics::Dpa1dHeuristic>());
  by_hand.push_back(std::make_unique<heuristics::Dpa2dHeuristic>(
      heuristics::Dpa2dHeuristic::Mode::Line1D));

  const auto paper = solve::SolverSet::paper();
  const auto retained = harness::run_campaign(g, p, paper);
  ASSERT_GT(retained.success_count(), 0u);
  ASSERT_LE(retained.period, 1.0);
  // The search divides T = 1 s by 10 down to the retained bound, then
  // tries one step further, where everything fails.
  std::size_t visited = 0;
  for (double T = 1.0; T >= retained.period / 10 * (1 - 1e-9); T /= 10) {
    const auto b = harness::run_at_period(g, p, paper, T);
    ASSERT_EQ(b.results.size(), by_hand.size());
    for (std::size_t h = 0; h < by_hand.size(); ++h) {
      EXPECT_EQ(by_hand[h]->name(), b.names[h]);
      const auto a = by_hand[h]->run(g, p, T);
      EXPECT_EQ(a.success, b.results[h].success) << b.names[h] << " at T=" << T;
      EXPECT_EQ(a.eval.energy, b.results[h].eval.energy)
          << b.names[h] << " at T=" << T;
    }
    ++visited;
  }
  EXPECT_GE(visited, 2u);
}

// ------------------------------------------------------------ composition --

TEST(Refine, PostPassNeverWorsensTheBaseResult) {
  const spg::Spg g = small_workload(21, 12);
  const auto p = cmp::Platform::reference(2, 3);
  const auto& reg = solve::SolverRegistry::instance();
  const auto base = reg.make("greedy")->run(g, p, 1.0);
  const auto refined = reg.make("greedy+refine")->run(g, p, 1.0);
  ASSERT_TRUE(base.success);
  ASSERT_TRUE(refined.success);
  EXPECT_LE(refined.eval.energy, base.eval.energy);
}

// --------------------------------------------------------------- solve --

TEST(SolveRun, ReportsWallTimeAndEvaluatorTraffic) {
  const spg::Spg g = small_workload();
  const auto p = cmp::Platform::reference(2, 2);
  solve::SolveRequest req;
  req.spg = &g;
  req.platform = &p;
  req.period = 1.0;

  const auto greedy = solve::run("greedy", req);
  ASSERT_TRUE(greedy.result.success);
  EXPECT_GT(greedy.stats.evaluator_calls(), 0u);
  EXPECT_GE(greedy.stats.wall_seconds, 0.0);

  // Random's trials run on the evaluator placement fast path, so its
  // fast-path share must be visible in the stats.
  const auto random = solve::run("random", req);
  ASSERT_TRUE(random.result.success);
  EXPECT_GT(random.stats.placement_evals, 0u);
  EXPECT_GT(random.stats.incremental_hit_rate(), 0.0);

  // Aggregation adds fields.
  solve::SolveStats sum = greedy.stats;
  sum += random.stats;
  EXPECT_EQ(sum.evaluator_calls(),
            greedy.stats.evaluator_calls() + random.stats.evaluator_calls());
}

TEST(SolveRun, CampaignCarriesPerSolverStats) {
  const spg::Spg g = small_workload();
  const auto p = cmp::Platform::reference(2, 2);
  const auto c = harness::run_campaign(g, p, solve::SolverSet::paper());
  ASSERT_EQ(c.stats.size(), c.results.size());
  bool any = false;
  for (const auto& s : c.stats) any = any || s.evaluator_calls() > 0;
  EXPECT_TRUE(any);
}

// --------------------------------------------------------- new solvers --

TEST(Anneal, NeverWorsensItsSeedSolverAndStaysValid) {
  const spg::Spg g = small_workload(21, 12);
  const auto p = cmp::Platform::reference(2, 3);
  const auto& reg = solve::SolverRegistry::instance();
  const auto seed = reg.make("greedy")->run(g, p, 1.0);
  const auto annealed = reg.make("anneal")->run(g, p, 1.0);
  ASSERT_TRUE(seed.success);
  ASSERT_TRUE(annealed.success);
  EXPECT_LE(annealed.eval.energy, seed.eval.energy);
  // The returned evaluation is authoritative: a fresh evaluate() agrees.
  const auto fresh = mapping::evaluate(g, p, annealed.mapping, 1.0);
  EXPECT_TRUE(fresh.valid());
  EXPECT_EQ(fresh.energy, annealed.eval.energy);
}

TEST(Anneal, ByteIdenticalAcrossSweepThreadCounts) {
  // The chain derives all randomness from the instance seed and problem
  // signature, so a 1-thread and an 8-thread sweep must agree bitwise.
  const auto p = cmp::Platform::reference(2, 2);
  const auto tasks = test::random_tasks(6, 7, 12, 3, 1.0);
  const auto set = solve::SolverSet::parse("anneal(iters=300),peft");
  const auto a = test::run_tasks(tasks, 0, tasks.size(), p, set, 1);
  const auto b = test::run_tasks(tasks, 0, tasks.size(), p, set, 8);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t w = 0; w < a.size(); ++w) {
    EXPECT_EQ(a[w].period, b[w].period) << w;
    ASSERT_EQ(a[w].results.size(), b[w].results.size());
    for (std::size_t h = 0; h < a[w].results.size(); ++h) {
      EXPECT_EQ(a[w].results[h].success, b[w].results[h].success) << w;
      EXPECT_EQ(a[w].results[h].eval.energy, b[w].results[h].eval.energy) << w;
      EXPECT_EQ(a[w].results[h].mapping.core_of, b[w].results[h].mapping.core_of)
          << w;
    }
  }
}

TEST(Peft, DeterministicParityWithItself) {
  const spg::Spg g = small_workload(33, 16);
  const auto p = cmp::Platform::reference(2, 3);
  const auto& reg = solve::SolverRegistry::instance();
  const auto a = reg.make("peft")->run(g, p, 1.0);
  const auto b = reg.make("peft")->run(g, p, 1.0);
  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  EXPECT_EQ(a.eval.energy, b.eval.energy);
  EXPECT_EQ(a.mapping.core_of, b.mapping.core_of);
  EXPECT_EQ(a.mapping.mode_of_core, b.mapping.mode_of_core);
  // The placement-fast-path evaluation it returns matches a full evaluate()
  // of the routed mapping (the fast-path equivalence contract).
  const auto fresh = mapping::evaluate(g, p, a.mapping, 1.0);
  EXPECT_TRUE(fresh.valid());
  EXPECT_EQ(fresh.energy, a.eval.energy);
}

TEST(Peft, RunsThroughACampaignNextToThePaperSet) {
  const spg::Spg g = small_workload();
  const auto p = cmp::Platform::reference(2, 2);
  const auto c = harness::run_campaign(
      g, p, solve::SolverSet::parse("dpa2d1d,anneal(iters=200),peft"));
  ASSERT_EQ(c.results.size(), 3u);
  EXPECT_EQ(c.names,
            (std::vector<std::string>{"DPA2D1D", "Anneal", "PEFT"}));
  EXPECT_GT(c.success_count(), 0u);
}

// ----------------------------------------------------- stat attribution --

TEST(SolveRun, FourThreadSweepReportsNonzeroPerSolverEvalCounts) {
  // Regression: SolveReport deltas used to read the calling thread's
  // counters; under the instance pipeline every solve runs on a pool worker, and
  // per-solve sinks must keep attributing counts there.
  const auto p = cmp::Platform::reference(2, 2);
  const auto tasks = test::random_tasks(8, 11, 10, 3, 1.0);
  const auto campaigns = test::run_tasks(
      tasks, 0, tasks.size(), p,
      solve::SolverSet::parse("greedy,dpa2d1d,anneal(iters=200),peft"), 4);
  for (const auto& c : campaigns) {
    ASSERT_EQ(c.stats.size(), c.results.size());
    for (std::size_t h = 0; h < c.results.size(); ++h) {
      if (c.results[h].success) {
        EXPECT_GT(c.stats[h].evaluator_calls(), 0u) << c.names[h];
      }
    }
  }
}

TEST(SolveRun, InternallyParallelSolverKeepsItsEvaluatorCounts) {
  // A solver that fans its evaluations out to parallel_for workers: the
  // per-solve sink follows the solve onto those workers, so the report sees
  // every call — a thread-local before/after snapshot would report zero.
  class FanOut final : public heuristics::Heuristic {
   public:
    [[nodiscard]] std::string name() const override { return "FanOut"; }
    [[nodiscard]] heuristics::Result run(const spg::Spg& g,
                                         const cmp::Platform& p,
                                         double T) const override {
      util::parallel_for(
          0, 8,
          [&](std::size_t) {
            mapping::Mapping m;
            m.core_of.assign(g.size(), 0);
            m.mode_of_core.assign(
                static_cast<std::size_t>(p.grid().core_count()), 0);
            m.edge_paths.assign(g.edge_count(), {});
            (void)mapping::evaluate(g, p, m, T);
          },
          4);
      mapping::Mapping m;
      m.core_of.assign(g.size(), 0);
      m.mode_of_core.assign(static_cast<std::size_t>(p.grid().core_count()), 0);
      m.edge_paths.assign(g.edge_count(), {});
      return heuristics::finalize_with_paths(g, p, T, std::move(m), true);
    }
  };

  const spg::Spg g = small_workload();
  const auto p = cmp::Platform::reference(2, 2);
  solve::SolveRequest req;
  req.spg = &g;
  req.platform = &p;
  req.period = 1.0;
  const auto report = solve::run(FanOut{}, req);
  // 8 fanned-out evaluations plus the finalizing one.
  EXPECT_GE(report.stats.full_evals, 9u);
}

// ----------------------------------------------------------- extension --

TEST(SolverRegistrar, ThirdPartySolversRegisterAndRejectDuplicates) {
  // A run-once registration through the same hook README documents.
  static const solve::SolverRegistrar reg(
      {"test_first_fit", "first-fit probe solver (test-only)", {}, false},
      [](const solve::SolverOptions&, const solve::SolveContext&,
         std::unique_ptr<heuristics::Heuristic>)
          -> std::unique_ptr<heuristics::Heuristic> {
        class FirstFit final : public heuristics::Heuristic {
         public:
          [[nodiscard]] std::string name() const override { return "FirstFit"; }
          [[nodiscard]] heuristics::Result run(
              const spg::Spg& g, const cmp::Platform& p,
              double T) const override {
            mapping::Mapping m;
            m.core_of.assign(g.size(), 0);
            m.mode_of_core.assign(
                static_cast<std::size_t>(p.grid().core_count()), 0);
            m.edge_paths.assign(g.edge_count(), {});
            return heuristics::finalize_with_routes(g, p, T, std::move(m));
          }
        };
        return std::make_unique<FirstFit>();
      });

  const auto& registry = solve::SolverRegistry::instance();
  EXPECT_TRUE(registry.contains("test_first_fit"));
  const auto solver = registry.make("test_first_fit");
  EXPECT_EQ(solver->name(), "FirstFit");
  // And it slots into a SolverSet next to built-ins.
  const auto set = solve::SolverSet::parse("greedy,test_first_fit");
  EXPECT_EQ(set.names(),
            (std::vector<std::string>{"Greedy", "FirstFit"}));
  EXPECT_THROW(
      solve::SolverRegistry::instance().add({"greedy", "", {}, false}, nullptr),
      solve::SolverError);
}

}  // namespace
