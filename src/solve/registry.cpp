#include "solve/registry.hpp"

#include <ostream>
#include <utility>

#include "heuristics/anneal.hpp"
#include "heuristics/dpa1d.hpp"
#include "heuristics/dpa2d.hpp"
#include "heuristics/exact.hpp"
#include "heuristics/greedy.hpp"
#include "heuristics/peft.hpp"
#include "heuristics/random_heuristic.hpp"
#include "heuristics/refine.hpp"
#include "spg/spg.hpp"

namespace spgcmp::solve {

namespace {

using heuristics::Heuristic;
using heuristics::Result;
using detail::trim;

/// Split a chain spec on '+' at parenthesis depth 0.
std::vector<std::string_view> split_chain(std::string_view spec) {
  return detail::split_depth0(spec, '+',
                              "solver spec '" + std::string(spec) + "'");
}

/// Split one stage "name(options)" into its name and option text.
std::pair<std::string, std::string> split_stage(std::string_view stage) {
  stage = trim(stage);
  const std::size_t paren = stage.find('(');
  if (paren == std::string_view::npos) {
    if (stage.find(')') != std::string_view::npos) {
      throw SolverError("malformed solver spec '" + std::string(stage) +
                        "': stray ')'");
    }
    return {std::string(trim(stage)), std::string()};
  }
  if (stage.back() != ')') {
    throw SolverError("malformed solver spec '" + std::string(stage) +
                      "': text after the option list (or missing ')')");
  }
  return {std::string(trim(stage.substr(0, paren))),
          std::string(stage.substr(paren + 1, stage.size() - paren - 2))};
}

/// Local-search post-pass wrapper: run the base solver, then hill-climb its
/// mapping with heuristics::refine_mapping.  Base failures pass through.
class RefineSolver final : public Heuristic {
 public:
  RefineSolver(std::unique_ptr<Heuristic> base, heuristics::RefineOptions opt)
      : base_(std::move(base)), opt_(opt) {}

  [[nodiscard]] std::string name() const override {
    return base_->name() + "+refine";
  }

  [[nodiscard]] Result run(const spg::Spg& g, const cmp::Platform& p,
                           double T) const override {
    Result seed = base_->run(g, p, T);
    if (!seed.success) return seed;
    return heuristics::refine_mapping(g, p, T, seed.mapping, opt_);
  }

 private:
  std::unique_ptr<Heuristic> base_;
  heuristics::RefineOptions opt_;
};

void register_builtins(SolverRegistry& reg) {
  reg.add({"random",
           "random DAG-partition trials, best valid mapping wins (Section 5.1)",
           {{"seed", "instance", "random stream seed (default: context seed)"},
            {"trials", "10", "independent trials"}},
           false},
          [](const SolverOptions& o, const SolveContext& ctx,
             std::unique_ptr<Heuristic>) -> std::unique_ptr<Heuristic> {
            const auto seed = static_cast<std::uint64_t>(
                o.get_int("seed", static_cast<std::int64_t>(ctx.seed)));
            const int trials =
                static_cast<int>(o.get_int_in("trials", 10, 1, 1000000));
            return std::make_unique<heuristics::RandomHeuristic>(seed, trials);
          });

  reg.add({"greedy",
           "wavefront growth from C(1,1) per speed, slowest-feasible downgrade "
           "(Section 5.2)",
           {{"downgrade", "true", "relax cores to their slowest feasible mode"}},
           false},
          [](const SolverOptions& o, const SolveContext&,
             std::unique_ptr<Heuristic>) -> std::unique_ptr<Heuristic> {
            return std::make_unique<heuristics::GreedyHeuristic>(
                o.get_bool("downgrade", true));
          });

  reg.add({"dpa2d",
           "column/row double dynamic program on the label grid (Section 5.3)",
           {},
           false},
          [](const SolverOptions&, const SolveContext&,
             std::unique_ptr<Heuristic>) -> std::unique_ptr<Heuristic> {
            return std::make_unique<heuristics::Dpa2dHeuristic>(
                heuristics::Dpa2dHeuristic::Mode::Grid2D);
          });

  reg.add({"dpa1d",
           "exact DP over admissible subgraphs on the snake line (Sections 4.1, "
           "5.4)",
           {{"states", "200000", "DP state budget (distinct ideals)"},
            {"expansions", "4000000", "cluster enumeration budget"}},
           false},
          [](const SolverOptions& o, const SolveContext&,
             std::unique_ptr<Heuristic>) -> std::unique_ptr<Heuristic> {
            heuristics::Dpa1dHeuristic::Options opt;
            opt.max_states = static_cast<std::size_t>(
                o.get_int_in("states", 200000, 1, 1000000000));
            opt.max_expansions = static_cast<std::size_t>(
                o.get_int_in("expansions", 4000000, 1, 10000000000));
            return std::make_unique<heuristics::Dpa1dHeuristic>(opt);
          });

  reg.add({"dpa2d1d",
           "DPA2D on a 1x(p*q) virtual line, embedded along the snake walk "
           "(Section 5.4)",
           {},
           false},
          [](const SolverOptions&, const SolveContext&,
             std::unique_ptr<Heuristic>) -> std::unique_ptr<Heuristic> {
            return std::make_unique<heuristics::Dpa2dHeuristic>(
                heuristics::Dpa2dHeuristic::Mode::Line1D);
          });

  reg.add({"exact",
           "exhaustive DAG-partition + placement enumeration for tiny instances "
           "(Section 4.4 stand-in)",
           {{"cap", "12", "max stages"},
            {"cores", "6", "max cores"},
            {"candidates", "5000000", "placement evaluation budget"},
            {"yx", "true", "also explore YX routes"},
            {"dag", "true", "require an acyclic quotient"}},
           false},
          [](const SolverOptions& o, const SolveContext&,
             std::unique_ptr<Heuristic>) -> std::unique_ptr<Heuristic> {
            heuristics::ExactSolver::Options opt;
            opt.max_stages =
                static_cast<std::size_t>(o.get_int_in("cap", 12, 1, 64));
            opt.max_cores = static_cast<int>(o.get_int_in("cores", 6, 1, 64));
            opt.max_candidates = static_cast<std::size_t>(
                o.get_int_in("candidates", 5000000, 1, 10000000000));
            opt.try_yx_routes = o.get_bool("yx", true);
            opt.require_dag_partition = o.get_bool("dag", true);
            return std::make_unique<heuristics::ExactSolver>(opt);
          });

  reg.add({"anneal",
           "simulated annealing on the incremental move protocol "
           "(swap/migrate neighborhood, Metropolis acceptance)",
           {{"init", "greedy", "seed solver spec (any registry solver)"},
            {"seed", "instance", "random stream seed (default: context seed)"},
            {"iters", "6000", "move proposals per chain"},
            {"t0", "0.05", "initial temperature, relative to seed energy"},
            {"cooling", "0.999", "geometric cooling factor per proposal"},
            {"restarts", "1", "chains, each restarted from the incumbent"},
            {"moves", "swap+migrate", "neighborhood mix ('+'-separated)"},
            {"batch", "8", "migration proposals scored per batched call"}},
           false},
          [](const SolverOptions& o, const SolveContext& ctx,
             std::unique_ptr<Heuristic>) -> std::unique_ptr<Heuristic> {
            heuristics::AnnealOptions opt;
            opt.iters = static_cast<std::size_t>(
                o.get_int_in("iters", 6000, 1, 100000000));
            opt.t0 = o.get_double("t0", 0.05);
            if (!(opt.t0 > 0.0)) {
              throw SolverError(
                  "solver 'anneal': option 't0': value must be > 0");
            }
            opt.cooling = o.get_double("cooling", 0.999);
            if (!(opt.cooling > 0.0 && opt.cooling <= 1.0)) {
              throw SolverError(
                  "solver 'anneal': option 'cooling': value must be in (0, 1]");
            }
            opt.restarts = static_cast<std::size_t>(
                o.get_int_in("restarts", 1, 1, 1000));
            opt.batch = static_cast<std::size_t>(
                o.get_int_in("batch", 8, 1, 4096));
            const std::string moves = o.get_string("moves", "swap+migrate");
            opt.move_swap = false;
            opt.move_migrate = false;
            for (const auto part :
                 detail::split_depth0(moves, '+', "solver 'anneal'")) {
              const std::string_view move = trim(part);
              if (move == "swap") {
                opt.move_swap = true;
              } else if (move == "migrate") {
                opt.move_migrate = true;
              } else {
                throw SolverError(
                    "solver 'anneal': option 'moves': expected a "
                    "'+'-separated mix of swap, migrate, got '" +
                    std::string(moves) + "'");
              }
            }
            const auto seed = static_cast<std::uint64_t>(
                o.get_int("seed", static_cast<std::int64_t>(ctx.seed)));
            auto init = SolverRegistry::instance().make(
                o.get_string("init", "greedy"), ctx);
            return std::make_unique<heuristics::AnnealHeuristic>(
                std::move(init), seed, opt);
          });

  reg.add({"peft",
           "PEFT-style list scheduler: optimistic-energy lookahead table, "
           "rank-ordered placement on the evaluator's placement fast path",
           {{"comm", "true", "charge optimistic per-hop communication in the "
                             "lookahead table"}},
           false},
          [](const SolverOptions& o, const SolveContext&,
             std::unique_ptr<Heuristic>) -> std::unique_ptr<Heuristic> {
            heuristics::PeftOptions opt;
            opt.comm = o.get_bool("comm", true);
            return std::make_unique<heuristics::PeftHeuristic>(opt);
          });

  reg.add({"refine",
           "local-search post-pass: relocate single stages while the "
           "DAG-partition and period hold",
           {{"base", "greedy", "seed solver (standalone use only)"},
            {"rounds", "8", "max full stage sweeps"},
            {"gain", "1e-12", "min relative improvement to accept a move"}},
           true},
          [](const SolverOptions& o, const SolveContext& ctx,
             std::unique_ptr<Heuristic> base) -> std::unique_ptr<Heuristic> {
            heuristics::RefineOptions opt;
            opt.max_rounds = static_cast<std::size_t>(
                o.get_int_in("rounds", 8, 1, 1000000));
            opt.min_gain = o.get_double("gain", 1e-12);
            if (base == nullptr) {
              base = SolverRegistry::instance().make(o.get_string("base", "greedy"),
                                                     ctx);
            } else if (o.has("base")) {
              throw SolverError(
                  "solver 'refine': option 'base' conflicts with '+' "
                  "composition");
            }
            return std::make_unique<RefineSolver>(std::move(base), opt);
          });
}

}  // namespace

SolverRegistry& SolverRegistry::instance() {
  // Magic static: built-ins are registered exactly once, before any caller
  // can observe the registry, and the structure is read-only afterwards.
  static SolverRegistry* reg = [] {
    auto* r = new SolverRegistry();
    register_builtins(*r);
    return r;
  }();
  return *reg;
}

void SolverRegistry::add(SolverInfo info, Factory factory) {
  if (contains(info.name)) {
    throw SolverError("solver '" + info.name + "' is already registered");
  }
  entries_.emplace_back(std::move(info), std::move(factory));
}

bool SolverRegistry::contains(std::string_view name) const noexcept {
  for (const auto& [info, factory] : entries_) {
    if (info.name == name) return true;
  }
  return false;
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [info, factory] : entries_) out.push_back(info.name);
  return out;
}

const std::pair<SolverInfo, SolverRegistry::Factory>& SolverRegistry::entry(
    std::string_view name) const {
  for (const auto& e : entries_) {
    if (e.first.name == name) return e;
  }
  std::string expected;
  for (const auto& [info, factory] : entries_) {
    if (!expected.empty()) expected += ", ";
    expected += info.name;
  }
  throw SolverError("unknown solver '" + std::string(name) + "' (expected " +
                    expected + ")");
}

const SolverInfo& SolverRegistry::info(std::string_view name) const {
  return entry(name).first;
}

std::unique_ptr<heuristics::Heuristic> SolverRegistry::make(
    std::string_view spec, const SolveContext& ctx) const {
  if (trim(spec).empty()) throw SolverError("empty solver spec");
  std::unique_ptr<heuristics::Heuristic> built;
  bool first = true;
  for (const auto stage : split_chain(spec)) {
    const auto [name, option_text] = split_stage(stage);
    const auto& [info, factory] = entry(name);  // throws the unknown listing
    const SolverOptions options = SolverOptions::parse(name, option_text);
    options.check_known(info.options);
    if (!first && !info.post_pass) {
      throw SolverError("solver '" + name +
                        "' is not a post-pass and cannot follow '+'");
    }
    built = factory(options, ctx, std::move(built));
    first = false;
  }
  return built;
}

void SolverRegistry::describe(std::ostream& os) const {
  os << "solvers (spec syntax: name | name(key=value,...) | base+post(...)):\n";
  for (const auto& [info, factory] : entries_) {
    os << "  " << info.name << ' ';
    for (std::size_t i = info.name.size() + 1; i < 10; ++i) os << ' ';
    os << info.summary << (info.post_pass ? "  [post-pass]" : "") << "\n";
    for (const auto& opt : info.options) {
      const std::string head = opt.name + "=" + opt.fallback;
      os << "      " << head << ' ';
      for (std::size_t i = head.size() + 1; i < 22; ++i) os << ' ';
      os << opt.help << "\n";
    }
  }
}

SolverSet SolverSet::parse(std::string_view csv, const SolveContext& ctx) {
  SolverSet set;
  set.ctx_ = ctx;
  const auto& registry = SolverRegistry::instance();
  for (auto& spec : split_solver_list(csv)) {
    // Instantiate once: validates the spec eagerly (names, options, chain
    // shape) and yields the display name the reports carry.
    set.names_.push_back(registry.make(spec, ctx)->name());
    set.specs_.push_back(std::move(spec));
  }
  if (set.specs_.empty()) throw SolverError("empty solver list");
  return set;
}

SolverSet SolverSet::paper(std::uint64_t seed) {
  return parse("random,greedy,dpa2d,dpa1d,dpa2d1d", SolveContext{seed});
}

std::vector<std::unique_ptr<heuristics::Heuristic>> SolverSet::instantiate()
    const {
  const auto& registry = SolverRegistry::instance();
  std::vector<std::unique_ptr<heuristics::Heuristic>> out;
  out.reserve(specs_.size());
  for (const auto& spec : specs_) out.push_back(registry.make(spec, ctx_));
  return out;
}

}  // namespace spgcmp::solve
