#include "heuristics/heuristic.hpp"

namespace spgcmp::heuristics {

Result finalize_with_paths(const spg::Spg& g, const cmp::Platform& p, double T,
                           mapping::Mapping m, bool downgrade,
                           mapping::Evaluator& evaluator) {
  if (downgrade) {
    if (!mapping::assign_slowest_modes(g, p, T, m)) {
      return Result::fail("some core cannot meet the period at maximum speed");
    }
  }
  const auto& ev = evaluator.evaluate_full(m);
  if (!ev.valid()) {
    return Result::fail(ev.error.empty()
                            ? (ev.dag_partition_ok ? "period bound violated"
                                                   : "quotient graph has a cycle")
                            : ev.error);
  }
  Result r;
  r.success = true;
  r.mapping = std::move(m);
  r.eval = ev;
  return r;
}

Result finalize_with_paths(const spg::Spg& g, const cmp::Platform& p, double T,
                           mapping::Mapping m, bool downgrade) {
  mapping::Evaluator evaluator(g, p, T);
  return finalize_with_paths(g, p, T, std::move(m), downgrade, evaluator);
}

Result finalize_with_routes(const spg::Spg& g, const cmp::Platform& p, double T,
                            mapping::Mapping m) {
  mapping::attach_routes(g, p.topology, m);
  return finalize_with_paths(g, p, T, std::move(m), /*downgrade=*/true);
}

}  // namespace spgcmp::heuristics
